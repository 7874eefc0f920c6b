package expt

import (
	"fmt"

	"fdw/internal/burst"
	"fdw/internal/core"
	"fdw/internal/wtrace"
)

// Fig5Cell is one parameter combination of the §4.3 bursting sweep.
// Fig. 5 cells run uncapped (the sweep explores how far each policy
// pushes VDC usage); Fig. 6 cells rerun the sweep with the paper's
// 30% bursted-job cap for the cost/runtime comparison.
type Fig5Cell struct {
	Batch      string
	ProbeSecs  float64
	MaxQueueM  float64
	Control    bool
	AvgJPM     float64 // average instant throughput, formula (6)
	MaxJPM     float64
	SDJPM      float64
	VDCPct     float64 // VDC usage: % of completions on VDC (§5.3.2)
	BurstedPct float64
	RuntimeH   float64
	CostUSD    float64 // formula (7)
}

// Fig5ProbeTimes are the paper's Policy 1 probe intervals (seconds).
var Fig5ProbeTimes = []float64{1, 2, 5, 10, 30, 60, 120}

// Fig5QueueTimesMin are the Policy 2 maximum queue times (minutes).
var Fig5QueueTimesMin = []float64{90, 120}

// Fig5Threshold is the Policy 1 instant-throughput threshold (JPM).
const Fig5Threshold = 34

// MakeBatchTraces produces the experiment's input: job-time traces of
// two real single-DAGMan batches that each generated 16,000 (scaled)
// waveforms, exactly the §4.2 runs the paper reuses in §4.3.
func MakeBatchTraces(opt Options) (batches []wtrace.BatchRecord, jobs [][]wtrace.JobRecord, err error) {
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}
	total := opt.scaleN(Fig3Total)
	seeds := []uint64{opt.Seeds[0], opt.Seeds[0] + 101}
	batches = make([]wtrace.BatchRecord, len(seeds))
	jobs = make([][]wtrace.JobRecord, len(seeds))
	err = forEachIndex(opt.workers(), len(seeds), func(i int) error {
		env, err := core.NewEnvObs(seeds[i], opt.Pool, opt.Obs)
		if err != nil {
			return err
		}
		cfg := core.DefaultConfig()
		cfg.Name = fmt.Sprintf("batch%d", i+1)
		cfg.Waveforms = total
		cfg.Seed = seeds[i]
		w, err := core.NewWorkflow(cfg, env.Kernel, env.Pool, nil)
		if err != nil {
			return err
		}
		if err := attachRecovery(opt, env, w); err != nil {
			return err
		}
		if err := core.RunBatch(env, []*core.Workflow{w}, opt.Horizon); err != nil {
			return fmt.Errorf("trace batch %d: %w", i+1, err)
		}
		batches[i], jobs[i], err = wtrace.FromSchedd(cfg.Name, w.Schedd)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return batches, jobs, nil
}

// Fig5 reruns §4.3/§5.3.1–5.3.2: the probe-time × queue-time sweep
// over two batches with no bursting cap, with the pure-OSG control
// first for each batch. The sweep is a shardable campaign
// (campaign.go); each shard regenerates the batch traces locally.
func Fig5(opt Options) ([]Fig5Cell, error) {
	cells, err := runCampaign(fig5Campaign("fig5", 1.0, "Fig. 5"), opt)
	if err != nil {
		return nil, err
	}
	return cells.([]Fig5Cell), nil
}

// Fig6 reruns §5.3.3–5.3.4: the same sweep with the paper's 30%
// bursted-job cap, whose cost and runtime columns Fig. 6 plots.
func Fig6(opt Options) ([]Fig5Cell, error) {
	cells, err := runCampaign(fig5Campaign("fig6", burst.DefaultMaxBurstFraction, "Fig. 6"), opt)
	if err != nil {
		return nil, err
	}
	return cells.([]Fig5Cell), nil
}

func cellFrom(name string, probe, queueM float64, r *burst.Result) Fig5Cell {
	return Fig5Cell{
		Batch:      name,
		ProbeSecs:  probe,
		MaxQueueM:  queueM,
		AvgJPM:     r.AvgInstantJPM,
		MaxJPM:     r.MaxInstantJPM,
		SDJPM:      r.SDInstantJPM,
		VDCPct:     r.VDCUsagePct,
		BurstedPct: r.BurstedPct,
		RuntimeH:   r.RuntimeSecs / 3600,
		CostUSD:    r.CostUSD,
	}
}
