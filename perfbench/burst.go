package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"fdw/internal/burst"
	"fdw/internal/expt"
	"fdw/internal/sim"
	"fdw/internal/wtrace"
)

// burstPolicy is one (probe, queue, cap) setting of the Fig. 5/6 sweep;
// probe 0 is the pure-OSG control.
type burstPolicy struct {
	probe, queueM float64
	cap           float64
}

// burstTraceSets is the number of times set-up runs
// expt.MakeBatchTraces, each with its own seed drawn from the workload
// seed; each run yields the Fig. 5/6 pair of batch traces. Eight
// batches keep the total replayed length within a few percent from
// seed to seed.
const burstTraceSets = 4

// burstPolicies enumerates the Fig. 5 (uncapped) and Fig. 6 (30% cap)
// sweeps, control first, in campaign order.
func burstPolicies() []burstPolicy {
	var ps []burstPolicy
	for _, cap := range []float64{1.0, burst.DefaultMaxBurstFraction} {
		ps = append(ps, burstPolicy{cap: cap})
		for _, q := range expt.Fig5QueueTimesMin {
			for _, p := range expt.Fig5ProbeTimes {
				ps = append(ps, burstPolicy{probe: p, queueM: q, cap: cap})
			}
		}
	}
	return ps
}

// fig56Bursting replays sweep cells through burst.Simulate against
// paper-scale batch traces, writing each series CSV to memory. One op
// is one policy replayed over every batch: a batch's length varies
// from seed to seed with a long tail (30,000 to 58,000 trace-seconds),
// and a replay costs in proportion to it, so one-batch ops would make
// the tail and the allocation follow the longest batch a seed drew.
type fig56Bursting struct {
	batches  []wtrace.BatchRecord
	jobs     [][]wtrace.JobRecord
	policies []burstPolicy
	digests  []uint64 // per policy, from the set-up pass
}

func setupFig56Bursting(seed uint64, tr *tracer) (instance, error) {
	var batches []wtrace.BatchRecord
	var jobs [][]wtrace.JobRecord
	err := tr.call("expt.make_traces_s", func() error {
		rng := sim.NewRNG(seed)
		for set := 0; set < burstTraceSets; set++ {
			opt := expt.DefaultOptions()
			opt.Seeds = []uint64{rng.Uint64()}
			opt.Workers = 1
			b, j, err := expt.MakeBatchTraces(opt)
			if err != nil {
				return err
			}
			batches, jobs = append(batches, b...), append(jobs, j...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	w := &fig56Bursting{policies: burstPolicies()}
	// The sweep reads its traces back from CSV, as burstsim does.
	err = tr.call("wtrace.csv_s", func() error {
		for i := range batches {
			var bb, jb bytes.Buffer
			if err := wtrace.WriteBatchCSV(&bb, batches[i]); err != nil {
				return err
			}
			if err := wtrace.WriteJobsCSV(&jb, jobs[i]); err != nil {
				return err
			}
			b, err := wtrace.ReadBatchCSV(&bb)
			if err != nil {
				return err
			}
			j, err := wtrace.ReadJobsCSV(&jb)
			if err != nil {
				return err
			}
			w.batches = append(w.batches, b)
			w.jobs = append(w.jobs, j)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Warm-up op: the control.
	if _, _, err := w.replay(0, tr); err != nil {
		return nil, err
	}
	return w, nil
}

// prime replays every policy once and keeps its digest; timed ops must
// reproduce it.
func (w *fig56Bursting) prime() error {
	for i := range w.policies {
		results, series, err := w.replay(i, nil)
		if err != nil {
			return err
		}
		w.digests = append(w.digests, burstDigest(results, series))
	}
	return nil
}

func (w *fig56Bursting) roundLen() int { return len(w.policies) }

// op replays policy pos over every batch. Its check: the digest of the
// results and series CSVs equals the one the policy gave after set-up.
func (w *fig56Bursting) op(pos int, tr *tracer) (float64, func() error, error) {
	results, series, err := w.replay(pos, tr)
	if err != nil {
		return 0, nil, err
	}
	secs := 0.0
	for _, r := range results {
		secs += r.RuntimeSecs
	}
	check := func() error {
		if d := burstDigest(results, series); d != w.digests[pos] {
			return fmt.Errorf("policy %d: result digest %016x != set-up digest %016x", pos, d, w.digests[pos])
		}
		return nil
	}
	return secs, check, nil
}

// replay runs policy pos over every batch and returns each batch's
// result and series CSV.
func (w *fig56Bursting) replay(pos int, tr *tracer) ([]*burst.Result, [][]byte, error) {
	p := w.policies[pos]
	cfg := burst.DefaultConfig()
	cfg.MaxBurstFraction = p.cap
	if p.probe > 0 {
		cfg.P1 = &burst.Policy1{ProbeSecs: p.probe, ThresholdJPM: expt.Fig5Threshold}
		cfg.P2 = &burst.Policy2{MaxQueueSecs: p.queueM * 60}
	}
	var results []*burst.Result
	var series [][]byte
	for bi := range w.batches {
		var res *burst.Result
		err := tr.call("burst.simulate_s", func() error {
			var err error
			res, err = burst.Simulate(w.batches[bi], w.jobs[bi], cfg)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		var csv bytes.Buffer
		if err := tr.call("burst.series_csv_s", func() error { return burst.WriteSeriesCSV(&csv, res) }); err != nil {
			return nil, nil, err
		}
		tr.count("burst.replayed_simsecs", res.RuntimeSecs)
		tr.count("burst.offloaded_jobs", float64(res.BurstedJobs))
		results, series = append(results, res), append(series, csv.Bytes())
	}
	return results, series, nil
}

// burstDigest hashes the results' reported figures and series CSVs.
func burstDigest(results []*burst.Result, series [][]byte) uint64 {
	h := fnv.New64a()
	for i, r := range results {
		var b []byte
		for _, v := range []float64{r.RuntimeSecs, r.AvgInstantJPM, r.MaxInstantJPM, r.SDInstantJPM,
			r.BurstedPct, r.VDCUsagePct, r.CostUSD, float64(r.BurstedJobs), float64(r.CompletedOSG), float64(r.CompletedVDC)} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		h.Write(b)
		h.Write(series[i])
	}
	return h.Sum64()
}
