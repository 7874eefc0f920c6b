package expt

import (
	"fmt"

	"fdw/internal/burst"
	"fdw/internal/core"
	"fdw/internal/ospool"
	"fdw/internal/sim"
	"fdw/internal/stash"
)

// The ablations quantify the design choices DESIGN.md §6 calls out:
// matrix recycling, the Stash cache, and the per-job fan-out. Each
// returns paper-style rows and prints them to opt.Out.

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Label         string
	RuntimeH      float64
	ThroughputJPM float64
	Jobs          int
}

// AblationRecycling measures FDW with and without the recyclable .npy
// distance matrices (the paper: generating them is time-consuming, so
// "recycling them is crucial").
func AblationRecycling(opt Options) ([]AblationRow, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	w := opt.out()
	fmt.Fprintf(w, "Ablation — matrix recycling (%d waveforms, full input)\n", opt.scaleN(1024))
	variants := []bool{true, false}
	rows := make([]AblationRow, len(variants))
	err := forEachIndex(opt.workers(), len(variants), func(i int) error {
		recycle := variants[i]
		cfg := core.DefaultConfig()
		cfg.Waveforms = opt.scaleN(1024)
		cfg.RecycleMatrices = recycle
		cfg.Name = fmt.Sprintf("ablate-recycle-%t", recycle)
		label := "recycled .npy"
		if !recycle {
			label = "regenerate .npy"
		}
		rt, jpm, jobs, _, err := runOneCell(opt, cfg, opt.Seeds[0])
		if err != nil {
			return err
		}
		rows[i] = AblationRow{Label: label, RuntimeH: rt, ThroughputJPM: jpm, Jobs: jobs}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s runtime %6.2f h, %6.2f JPM, %d jobs\n", r.Label, r.RuntimeH, r.ThroughputJPM, r.Jobs)
	}
	return rows, nil
}

// AblationStash measures FDW with the Stash cache versus all-cold
// transfers (every job pays origin bandwidth for the >1 GB inputs).
func AblationStash(opt Options) ([]AblationRow, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	w := opt.out()
	n := opt.scaleN(2000)
	fmt.Fprintf(w, "Ablation — Stash cache (%d waveforms, full input)\n", n)
	variants := []bool{true, false}
	rows := make([]AblationRow, len(variants))
	err := forEachIndex(opt.workers(), len(variants), func(i int) error {
		withCache := variants[i]
		k := sim.NewKernel(opt.Seeds[0])
		var cache *stash.Cache
		var err error
		label := "stash cache"
		if withCache {
			cache, err = stash.New(stash.DefaultConfig())
		} else {
			// No regional caches: every transfer rides origin bandwidth.
			cfg := stash.DefaultConfig()
			cfg.CacheBps = cfg.OriginBps
			cache, err = stash.New(cfg)
			label = "no cache (all cold)"
		}
		if err != nil {
			return err
		}
		pool, err := ospool.New(k, opt.Pool, cache)
		if err != nil {
			return err
		}
		cache.SetObs(opt.Obs)
		pool.SetObs(opt.Obs)
		env := &core.Env{Kernel: k, Pool: pool, Cache: cache, Obs: opt.Obs}
		cfg := core.DefaultConfig()
		cfg.Waveforms = n
		cfg.Name = "ablate-stash"
		cfg.Seed = opt.Seeds[0]
		wf, err := core.NewWorkflow(cfg, env.Kernel, env.Pool, nil)
		if err != nil {
			return err
		}
		if err := core.RunBatch(env, []*core.Workflow{wf}, opt.Horizon); err != nil {
			return err
		}
		rows[i] = AblationRow{
			Label:         label,
			RuntimeH:      wf.RuntimeHours(),
			ThroughputJPM: wf.ThroughputJPM(),
			Jobs:          wf.Schedd.Completed(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s runtime %6.2f h, %6.2f JPM\n", r.Label, r.RuntimeH, r.ThroughputJPM)
	}
	return rows, nil
}

// AblationFanout sweeps the phase C fan-out (waveforms per OSG job):
// finer fan-out exposes more parallelism but multiplies scheduling and
// transfer overhead — the trade that fixed the paper's 2-per-job choice.
func AblationFanout(opt Options) ([]AblationRow, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	w := opt.out()
	n := opt.scaleN(4096)
	fmt.Fprintf(w, "Ablation — waveforms per job (%d waveforms, full input)\n", n)
	fanouts := []int{1, 2, 8, 32}
	rows := make([]AblationRow, len(fanouts))
	err := forEachIndex(opt.workers(), len(fanouts), func(i int) error {
		perJob := fanouts[i]
		cfg := core.DefaultConfig()
		cfg.Waveforms = n
		cfg.WaveformsPerJob = perJob
		cfg.Name = fmt.Sprintf("ablate-fanout-%d", perJob)
		rt, jpm, jobs, _, err := runOneCell(opt, cfg, opt.Seeds[0])
		if err != nil {
			return err
		}
		rows[i] = AblationRow{Label: fmt.Sprintf("%d wf/job", perJob), RuntimeH: rt, ThroughputJPM: jpm, Jobs: jobs}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s runtime %6.2f h, %6.2f JPM, %d jobs\n", r.Label, r.RuntimeH, r.ThroughputJPM, r.Jobs)
	}
	return rows, nil
}

// Policy3Row is one point of the submission-gap sweep.
type Policy3Row struct {
	Batch      string
	MaxGapMin  float64
	AvgJPM     float64
	BurstedPct float64
	CostUSD    float64
}

// Policy3Sweep explores Policy 3 (submission gaps), which the paper
// defines but does not sweep: maximum allowed gaps of 5–60 minutes on
// the two §4.3 batch traces.
func Policy3Sweep(opt Options) ([]Policy3Row, error) {
	batches, jobs, err := MakeBatchTraces(opt)
	if err != nil {
		return nil, err
	}
	w := opt.out()
	fmt.Fprintf(w, "Policy 3 sweep — burst on submission gaps\n")
	fmt.Fprintf(w, "%8s %8s | %8s %8s %8s\n", "batch", "gap min", "AIT jpm", "burst %", "cost $")
	gaps := []float64{5, 15, 30, 60}
	rows := make([]Policy3Row, len(batches)*len(gaps))
	err = forEachIndex(opt.workers(), len(rows), func(i int) error {
		bi, gapMin := i/len(gaps), gaps[i%len(gaps)]
		cfg := burst.DefaultConfig()
		cfg.Obs = opt.Obs
		cfg.P3 = &burst.Policy3{MaxGapSecs: gapMin * 60, ProbeSecs: 30}
		res, err := burst.Simulate(batches[bi], jobs[bi], cfg)
		if err != nil {
			return err
		}
		rows[i] = Policy3Row{
			Batch:      batches[bi].Name,
			MaxGapMin:  gapMin,
			AvgJPM:     res.AvgInstantJPM,
			BurstedPct: res.BurstedPct,
			CostUSD:    res.CostUSD,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%8s %8.0f | %8.2f %8.1f %8.2f\n",
			row.Batch, row.MaxGapMin, row.AvgJPM, row.BurstedPct, row.CostUSD)
	}
	return rows, nil
}

// ElasticRow compares the future-work elastic policy with Policy 1.
type ElasticRow struct {
	Batch      string
	Policy     string
	AvgJPM     float64
	BurstedPct float64
	CostUSD    float64
	RuntimeH   float64
}

// ElasticComparison runs the paper's future-work elastic algorithm
// against Policy 1 at the same probing cadence and target.
func ElasticComparison(opt Options) ([]ElasticRow, error) {
	batches, jobs, err := MakeBatchTraces(opt)
	if err != nil {
		return nil, err
	}
	w := opt.out()
	fmt.Fprintf(w, "Elastic bursting (future work §6) vs Policy 1 (target %d JPM)\n", Fig5Threshold)
	fmt.Fprintf(w, "%8s %-10s | %8s %8s %9s %9s\n", "batch", "policy", "AIT jpm", "burst %", "cost $", "runtime h")
	configs := []struct {
		name string
		cfg  burst.Config
	}{
		{"policy-1", func() burst.Config {
			c := burst.DefaultConfig()
			c.Obs = opt.Obs
			c.P1 = &burst.Policy1{ProbeSecs: 30, ThresholdJPM: Fig5Threshold}
			return c
		}()},
		{"elastic", func() burst.Config {
			c := burst.DefaultConfig()
			c.Obs = opt.Obs
			c.Elastic = &burst.ElasticPolicy{TargetJPM: Fig5Threshold, ProbeSecs: 30, MaxPerProbe: 8}
			return c
		}()},
	}
	rows := make([]ElasticRow, len(batches)*len(configs))
	err = forEachIndex(opt.workers(), len(rows), func(i int) error {
		bi, pc := i/len(configs), configs[i%len(configs)]
		res, err := burst.Simulate(batches[bi], jobs[bi], pc.cfg)
		if err != nil {
			return err
		}
		rows[i] = ElasticRow{
			Batch:      batches[bi].Name,
			Policy:     pc.name,
			AvgJPM:     res.AvgInstantJPM,
			BurstedPct: res.BurstedPct,
			CostUSD:    res.CostUSD,
			RuntimeH:   res.RuntimeSecs / 3600,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%8s %-10s | %8.2f %8.1f %9.2f %9.2f\n",
			row.Batch, row.Policy, row.AvgJPM, row.BurstedPct, row.CostUSD, row.RuntimeH)
	}
	return rows, nil
}

// AblationChurn measures FDW under aggressive pilot churn (mean
// glidein lifetime cut from 6 h to 45 min): evictions spike but the
// requeue machinery keeps the workflow correct, at a bounded runtime
// cost — the robustness argument for running FakeQuakes on
// opportunistic OSG resources at all.
func AblationChurn(opt Options) ([]AblationRow, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	w := opt.out()
	n := opt.scaleN(2000)
	fmt.Fprintf(w, "Ablation — glidein churn (%d waveforms, full input)\n", n)
	variants := []bool{false, true}
	rows := make([]AblationRow, len(variants))
	evicted := make([]int, len(variants))
	err := forEachIndex(opt.workers(), len(variants), func(i int) error {
		churn := variants[i]
		pool := opt.Pool
		pool.Sites = append([]ospool.SiteConfig(nil), opt.Pool.Sites...)
		label := "6h pilots"
		if churn {
			pool.GlideinLifetimeMean = 45 * 60
			label = "45min pilots"
		}
		k := sim.NewKernel(opt.Seeds[0])
		cache, err := stash.New(stash.DefaultConfig())
		if err != nil {
			return err
		}
		pl, err := ospool.New(k, pool, cache)
		if err != nil {
			return err
		}
		cache.SetObs(opt.Obs)
		pl.SetObs(opt.Obs)
		env := &core.Env{Kernel: k, Pool: pl, Cache: cache, Obs: opt.Obs}
		cfg := core.DefaultConfig()
		cfg.Waveforms = n
		cfg.Name = "ablate-churn"
		cfg.Seed = opt.Seeds[0]
		wf, err := core.NewWorkflow(cfg, env.Kernel, env.Pool, nil)
		if err != nil {
			return err
		}
		if err := core.RunBatch(env, []*core.Workflow{wf}, opt.Horizon); err != nil {
			return err
		}
		_, _, evictions := pl.Stats()
		evicted[i] = evictions
		rows[i] = AblationRow{
			Label:         label,
			RuntimeH:      wf.RuntimeHours(),
			ThroughputJPM: wf.ThroughputJPM(),
			Jobs:          wf.Schedd.Completed(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		fmt.Fprintf(w, "  %-14s runtime %6.2f h, %6.2f JPM, %d evictions\n",
			r.Label, r.RuntimeH, r.ThroughputJPM, evicted[i])
	}
	return rows, nil
}
