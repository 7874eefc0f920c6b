package expt

import (
	"fmt"

	"fdw/internal/baseline"
	"fdw/internal/core"
	"fdw/internal/stats"
)

// HeadlineResult is the §6 comparison: FDW versus an automated
// single-machine FakeQuakes run for 1,024 full-input waveforms, plus
// the abstract's throughput multiple between 1,024 and 50,000.
type HeadlineResult struct {
	Waveforms      int
	FDWHours       float64
	BaselineHours  float64
	DecreasePct    float64 // the paper reports 56.8%
	JPMAt1024      float64
	JPMAt50000     float64
	ThroughputGain float64 // the paper reports ≈5×
}

// Headline reruns the headline measurements.
func Headline(opt Options) (*HeadlineResult, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	w := opt.out()
	n1024 := opt.scaleN(1024)
	n50000 := opt.scaleN(50000)

	// Both quantities × all seeds fan out together; per-seed results are
	// averaged in seed order, as a serial run would.
	reps := len(opt.Seeds)
	quantities := []int{n1024, n50000}
	type result struct{ rt, jpm float64 }
	results := make([]result, len(quantities)*reps)
	err := forEachIndex(opt.workers(), len(results), func(i int) error {
		q, seed := quantities[i/reps], opt.Seeds[i%reps]
		cfg := core.DefaultConfig()
		cfg.Name = fmt.Sprintf("headline-%d", q)
		cfg.Waveforms = q
		cfg.Seed = seed
		rt, jpm, _, _, err := runOneCell(opt, cfg, seed)
		if err != nil {
			return fmt.Errorf("headline %d run: %w", q, err)
		}
		results[i] = result{rt, jpm}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mean := func(qi int, field func(result) float64) float64 {
		vals := make([]float64, reps)
		for r := 0; r < reps; r++ {
			vals[r] = field(results[qi*reps+r])
		}
		return stats.Mean(vals)
	}
	fdwH := mean(0, func(r result) float64 { return r.rt })
	jpmSmall := mean(0, func(r result) float64 { return r.jpm })
	jpmBig := mean(1, func(r result) float64 { return r.jpm })

	cfg := core.DefaultConfig()
	cfg.Waveforms = n1024
	bl, err := baseline.Run(baseline.AWSInstance(), cfg)
	if err != nil {
		return nil, err
	}

	res := &HeadlineResult{
		Waveforms:     n1024,
		FDWHours:      fdwH,
		BaselineHours: bl.TotalHours(),
		DecreasePct:   stats.PctDecrease(bl.TotalHours(), fdwH),
		JPMAt1024:     jpmSmall,
		JPMAt50000:    jpmBig,
	}
	if jpmSmall > 0 {
		res.ThroughputGain = jpmBig / jpmSmall
	}
	fmt.Fprintf(w, "Headline — %d full-input waveforms: FDW %.2f h vs single machine %.2f h → %.1f%% decrease (paper: 56.8%%)\n",
		res.Waveforms, res.FDWHours, res.BaselineHours, res.DecreasePct)
	fmt.Fprintf(w, "Throughput gain %d→%d waveforms: %.2f× (paper: ≈5×)\n",
		n1024, n50000, res.ThroughputGain)
	return res, nil
}
