package main

import (
	"bytes"
	"fmt"
	"math"

	"fdw/internal/core"
	"fdw/internal/faults"
	"fdw/internal/htcondor"
	"fdw/internal/obs"
	"fdw/internal/ospool"
	"fdw/internal/recovery"
	"fdw/internal/sim"
)

// horizon bounds every simulated batch, as in the figure campaigns.
const horizon sim.Time = 1000 * 3600

// fig3Waveforms is the paper's Fig. 3 workload: 16,000 waveforms split
// evenly over the ladder's DAGMans.
const fig3Waveforms = 16000

// fig3Ladder is the Fig. 3 concurrency ladder; one round runs each
// rung once.
var fig3Ladder = []int{1, 2, 4, 8}

// fig3Pool runs paper-scale Fig. 3 cells on the default pool, each
// DAGMan writing its user log to memory, and derives formula (1)/(2)
// statistics from the log.
type fig3Pool struct{ seed uint64 }

func setupFig3Pool(seed uint64, tr *tracer) (instance, error) {
	w := &fig3Pool{seed: seed}
	// Warm-up: the smallest rung, so the first timed op does not pay
	// for lazily built runtime and package state.
	return w, warmUp(w, tr)
}

func (w *fig3Pool) roundLen() int { return len(fig3Ladder) }

// op runs one ladder rung. Its check: every job completes, and the
// runtime and JPM derived from each user log equal the executor's.
func (w *fig3Pool) op(pos int, tr *tracer) (float64, func() error, error) {
	dagmans := fig3Ladder[pos]
	cellSeed := w.seed*100 + uint64(dagmans)
	var env *core.Env
	var wfs []*core.Workflow
	logs := make([]*bytes.Buffer, dagmans)
	err := tr.call("core.new_workflow_s", func() error {
		var err error
		if env, err = core.NewEnv(cellSeed, ospool.DefaultConfig()); err != nil {
			return err
		}
		for d := 0; d < dagmans; d++ {
			cfg := core.DefaultConfig()
			cfg.Name = fmt.Sprintf("fig3-n%d-d%d", dagmans, d)
			cfg.Waveforms = fig3Waveforms / dagmans
			cfg.Seed = cellSeed*1000 + uint64(d)
			logs[d] = &bytes.Buffer{}
			wf, err := core.NewWorkflow(cfg, env.Kernel, env.Pool, logs[d])
			if err != nil {
				return err
			}
			wfs = append(wfs, wf)
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	if err := tr.call("core.run_batch_s", func() error { return core.RunBatch(env, wfs, horizon) }); err != nil {
		return 0, nil, err
	}
	countPool(tr, env)
	jobs := 0
	stats := make([]*core.BatchStats, len(wfs))
	for d, wf := range wfs {
		tr.count("htcondor.userlog_mb", float64(logs[d].Len())/1e6)
		var st *core.BatchStats
		err := tr.call("core.analyze_log_s", func() error {
			events, err := htcondor.ParseUserLog(logs[d])
			if err != nil {
				return err
			}
			st, err = core.AnalyzeEvents(wf.Cfg.Name, events)
			return err
		})
		if err != nil {
			return 0, nil, err
		}
		stats[d] = st
		jobs += wf.TotalJobs()
	}
	check := func() error {
		for d, wf := range wfs {
			if err := checkFig3(wf, stats[d]); err != nil {
				return err
			}
		}
		return nil
	}
	return float64(jobs), check, nil
}

// checkFig3 is the fig3-pool output check.
func checkFig3(wf *core.Workflow, st *core.BatchStats) error {
	want := wf.TotalJobs()
	if got := wf.Schedd.Completed(); got != want || st.CompletedJobs != want || st.TotalJobs != want {
		return fmt.Errorf("%s: %d jobs, schedd completed %d, log shows %d of %d completed",
			wf.Cfg.Name, want, got, st.CompletedJobs, st.TotalJobs)
	}
	// The user log stamps events to the whole second, so the derived
	// runtime may differ from the executor's by less than one second,
	// and the JPM by the same relative amount.
	rt := wf.Exec.RuntimeSeconds()
	if math.Abs(st.RuntimeSecs-rt) >= 1 {
		return fmt.Errorf("%s: log runtime %v s != executor %v s", wf.Cfg.Name, st.RuntimeSecs, rt)
	}
	if jpm := wf.ThroughputJPM(); math.Abs(st.ThroughputJPM-jpm) > jpm/(rt-1) {
		return fmt.Errorf("%s: log JPM %v != executor %v", wf.Cfg.Name, st.ThroughputJPM, jpm)
	}
	return nil
}

// countPool records the sim kernel, pool and stash counters of one
// finished environment.
func countPool(tr *tracer, env *core.Env) {
	tr.count("sim.events", float64(env.Kernel.Steps()))
	tr.count("sim.simsecs", float64(env.Kernel.Now()))
	started, completed, evictions := env.Pool.Stats()
	tr.count("ospool.started", float64(started))
	tr.count("ospool.completed", float64(completed))
	tr.count("ospool.evictions", float64(evictions))
	tr.count("ospool.wasted_s", env.Pool.WastedSeconds())
	hits, misses := env.Cache.Stats()
	tr.count("stash.hits", float64(hits))
	tr.count("stash.lookups", float64(hits+misses))
}

// chaosWaveforms sizes the chaos cells: the smallest Fig. 2 quantity,
// so a cell's cost is the fault and recovery machinery, not queue depth.
const chaosWaveforms = 1024

// chaosSeeds is the number of seeds each (plan, recovery) pair runs in
// one round. Fault plans make cell costs vary widely with the seed, so
// a round spans many seeds and every run averages over the same spread
// of cells.
const chaosSeeds = 48

// chaosMetered runs chaos-sweep cells — every standard fault plan with
// recovery off and on, over chaosSeeds seeds — with a metrics registry
// attached and its snapshot written to memory.
type chaosMetered struct {
	seed  uint64
	plans []faults.Plan
}

func setupChaosMetered(seed uint64, tr *tracer) (instance, error) {
	w := &chaosMetered{seed: seed, plans: faults.StandardPlans()}
	return w, warmUp(w, tr)
}

func (w *chaosMetered) roundLen() int { return 2 * len(w.plans) * chaosSeeds }

// op runs cell pos: recovery on for odd pos, then plan, then seed. Its
// check: job conservation (submitted = ok + failed + removed) and
// termination.
func (w *chaosMetered) op(pos int, tr *tracer) (float64, func() error, error) {
	rec := pos%2 == 1
	cell := pos / 2
	plan := w.plans[cell%len(w.plans)]
	seed := w.seed*1000 + uint64(cell/len(w.plans))
	var env *core.Env
	var wf *core.Workflow
	var pol *recovery.Policy
	err := tr.call("core.new_workflow_s", func() error {
		var err error
		if env, err = core.NewMeteredEnv(seed, ospool.DefaultConfig()); err != nil {
			return err
		}
		cfg := core.DefaultConfig()
		cfg.Name = "chaos-" + plan.Name
		cfg.Waveforms = chaosWaveforms
		cfg.Seed = seed
		if wf, err = core.NewWorkflow(cfg, env.Kernel, env.Pool, nil); err != nil {
			return err
		}
		inj, err := faults.New(env.Kernel, plan)
		if err != nil {
			return err
		}
		inj.SetObs(env.Obs)
		inj.Attach(env.Pool, wf.Schedd)
		if !rec {
			return nil
		}
		if pol, err = recovery.New(env.Kernel, recovery.DefaultConfig()); err != nil {
			return err
		}
		pol.SetObs(env.Obs)
		pol.Attach(env.Pool, wf.Schedd)
		pol.AttachExecutor(wf.Exec)
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	if err := tr.call("core.run_batch_s", func() error { return core.RunBatch(env, []*core.Workflow{wf}, horizon) }); err != nil {
		return 0, nil, fmt.Errorf("%s: termination: %w", plan.Name, err)
	}
	countPool(tr, env)
	tr.count("dagman.retries", float64(wf.Exec.TotalRetries()))
	if pol != nil {
		s := pol.Stats()
		tr.count("recovery.hedges", float64(s.HedgesSubmitted))
		tr.count("recovery.backoff_holds", float64(s.BackoffHolds))
		tr.count("recovery.breaker_opens", float64(s.BreakerOpens))
	}
	var snap bytes.Buffer
	err = tr.call("obs.snapshot_s", func() error {
		if env.Obs == nil {
			return fmt.Errorf("no metrics registry")
		}
		s := env.Obs.Snapshot()
		tr.count("obs.spans_kept", float64(len(s.Spans)))
		tr.count("obs.spans_dropped", float64(s.SpansDropped))
		return obs.WriteSnapshotJSON(&snap, s)
	})
	if err != nil {
		return 0, nil, err
	}
	check := func() error {
		if err := checkChaos(wf, snap.Len()); err != nil {
			return fmt.Errorf("%s recovery=%t: %w", plan.Name, rec, err)
		}
		return nil
	}
	return float64(len(wf.Schedd.AllJobs())), check, nil
}

// checkChaos is the chaos-metered output check: the DAG terminated and
// every submitted job ended completed-ok, failed or removed.
func checkChaos(wf *core.Workflow, snapBytes int) error {
	if !wf.Exec.Done() {
		return fmt.Errorf("executor not done")
	}
	var ok, failed, removed int
	for _, j := range wf.Schedd.AllJobs() {
		switch {
		case j.Status == htcondor.Completed && j.ExitCode == 0:
			ok++
		case j.Status == htcondor.Completed:
			failed++
		case j.Status == htcondor.Removed:
			removed++
		}
	}
	// A DAG whose every submission the schedd refused (the
	// submit-errors plan) ends with no jobs; that conserves trivially.
	if n := len(wf.Schedd.AllJobs()); n != ok+failed+removed {
		return fmt.Errorf("submitted %d != ok %d + failed %d + removed %d", n, ok, failed, removed)
	}
	if snapBytes == 0 {
		return fmt.Errorf("empty metrics snapshot")
	}
	return nil
}
