// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload for a fixed time, checks every op's output, and
// prints one JSON line with the end-to-end metrics (-trace 0) or the
// per-layer metrics of a traced run (-trace 1). BENCHMARK.json at the
// repository root lists the workloads and metrics; README.md beside
// this file explains them.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh -workload fig3-pool -seed 1 -seconds 15 -trace 0
//	bash perfbench/run.sh -workload all
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// instance is a workload after set-up. One round runs op at every
// position once; a timed run is a whole number of rounds, so counts
// and allocation per op repeat exactly for a seed.
type instance interface {
	roundLen() int
	// op runs the op at pos and returns the work units it completed and
	// a check of its output, which runs after the op's clock stops. An
	// error from either means the op failed.
	op(pos int, tr *tracer) (float64, func() error, error)
}

// warmUp runs and checks the first op of inst, so the first timed op
// does not pay for lazily built runtime and package state.
func warmUp(inst instance, tr *tracer) error {
	_, check, err := inst.op(0, tr)
	if err != nil {
		return err
	}
	return check()
}

// primer is implemented by workloads whose output checks compare
// against outputs recorded once after set-up. Priming is not timed:
// it is the benchmark's own work, not the program's.
type primer interface{ prime() error }

// workload is one benchmark workload.
type workload struct {
	name     string
	workUnit string
	setup    func(seed uint64, tr *tracer) (instance, error)
	// ref is the reference kernel that measures host speed for this
	// workload's kind of work.
	ref func() uint64
	// procs, when non-zero, is the GOMAXPROCS the workload runs at.
	// Ops that run on one goroutine run at 1, so the collector's
	// idle-time workers on a spare processor do not add a CPU charge
	// that depends on scheduling rather than on the op.
	procs int
}

var workloads = []workload{
	{name: "fig3-pool", workUnit: "simulated jobs", setup: setupFig3Pool, ref: refAlloc, procs: 1},
	{name: "chaos-metered", workUnit: "simulated jobs", setup: setupChaosMetered, ref: refAlloc, procs: 1},
	{name: "fig56-bursting", workUnit: "replayed trace-seconds", setup: setupFig56Bursting, ref: refAlloc, procs: 1},
	{name: "fakequakes-jobs", workUnit: "station waveforms", setup: setupFakequakesJobs, ref: refFlops},
}

// setupReps fresh set-ups are timed in every run; setup_s is their
// median, because one set-up is too short to time steadily.
const setupReps = 7

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", `workload name, or "all" to run every workload in turn`)
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "timed run length in seconds")
		trace   = flag.Int("trace", 0, "1 for the traced per-layer run")
	)
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		res, err := run(os.Stdout, n, *seed, *seconds, *trace == 1, spansDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// spansDir receives the traced run's spans, under the build directory
// of the checkout the benchmark runs in.
var spansDir = filepath.Join(".bench_build", "perfbench")

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// run sets the workload up, measures it and returns the result line.
// Human-readable detail (raw CPU-s, sample counts) goes to log.
func run(log io.Writer, name string, seed uint64, seconds float64, traced bool, outDir string) (*result, error) {
	wl, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("non-positive -seconds %v", seconds)
	}
	if wl.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs))
	}
	start := hostNow()
	tr := newTracer(start)
	tr.on = traced
	inst, setup, err := setUp(wl, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	fmt.Fprintf(log, "%s seed %d: set-up median %.4f s normalised (%.4f CPU-s raw) over %d fresh set-ups\n",
		wl.name, seed, setup.norm, setup.raw, setupReps)
	if !traced {
		st := measure(wl, inst, seconds, nil, start, true)
		st.print(log, wl)
		return st.endToEnd(setup.norm), nil
	}

	setupSecs := tr.secs
	tr.secs, tr.counts, tr.rounds = map[string]float64{}, map[string]float64{}, nil
	tr.on = false
	plain := measure(wl, inst, seconds/2, nil, start, false)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tr.on = true
	traced2 := measure(wl, inst, seconds/2, tr, start, false)
	pprof.StopCPUProfile()
	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	traced2.print(log, wl)
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", wl.name, seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%d spans written to %s\n", len(tr.spans), path)
	failed := plain.failed + traced2.failed
	res := &result{Attempted: plain.attempted + traced2.attempted, Failed: failed, Correct: failed == 0,
		Metrics: layerValues(tr, setupSecs, traced2, plain, shares)}
	return res, nil
}

// setupTiming is the median set-up cost, normalised and raw.
type setupTiming struct{ norm, raw float64 }

// setUp builds the workload setupReps times from scratch and keeps
// the last instance. Like an op, each set-up is normalised by the mean
// of the reference factors measured just before and just after it.
func setUp(wl workload, seed uint64, tr *tracer) (instance, setupTiming, error) {
	// The first runs of the reference fault in fresh heap pages; run it
	// until they are behind it.
	for i := 0; i < 3; i++ {
		timeRef(wl.ref)
		runtime.GC()
	}
	var inst instance
	var raws, factors []float64
	for i := 0; i < setupReps; i++ {
		inst = nil
		runtime.GC()
		f := timeRef(wl.ref)
		runtime.GC()
		tr.factor = f
		c0 := cpuSeconds()
		var err error
		if inst, err = wl.setup(seed, tr); err != nil {
			return nil, setupTiming{}, err
		}
		raws = append(raws, cpuSeconds()-c0)
		factors = append(factors, f)
	}
	runtime.GC()
	factors = append(factors, timeRef(wl.ref))
	var norms []float64
	for i, c := range raws {
		norms = append(norms, c/((factors[i]+factors[i+1])/2))
	}
	if p, ok := inst.(primer); ok {
		if err := p.prime(); err != nil {
			return nil, setupTiming{}, err
		}
	}
	return inst, setupTiming{norm: median(norms), raw: median(raws)}, nil
}

// runStats is what one timed run measured.
type runStats struct {
	attempted, failed int
	rounds            int
	roundLen          int
	raw, norm         []float64 // per-op CPU-s
	opWork            []float64 // per-op work units (0 when failed)
	factors           []float64 // per-op host-speed factor
	work              float64   // work units of successful ops
	allocBytes        float64
	peaks             []float64 // per-op peak heap, MB
	uncovered         float64   // raw CPU-s outside timed calls (traced)
}

// measure runs whole rounds of ops until seconds of wall time have
// passed. Before each op it times the reference kernel; with forceGC it
// collects garbage before and after the reference, so every op starts
// from the same heap state. The traced run leaves the collections out,
// so its profile holds only the program's own collector work. The
// reference after an op is the one before the next, so
// each op is normalised by the mean of the two references that
// bracket it, which follows host-speed drift at the op's own moment.
func measure(wl workload, inst instance, seconds float64, tr *tracer, start time.Time, forceGC bool) *runStats {
	st := &runStats{roundLen: inst.roundLen()}
	ph := newPeakHeap()
	t0 := wallNow(start)
	for {
		for pos := 0; pos < inst.roundLen(); pos++ {
			if forceGC {
				runtime.GC()
			}
			f := timeRef(wl.ref)
			if forceGC {
				runtime.GC()
			}
			ph.arm()
			tr.beginOp(st.attempted, wl.name, f)
			a0, c0 := heapAllocBytes(), cpuSeconds()
			work, check, err := inst.op(pos, tr)
			c1, a1 := cpuSeconds(), heapAllocBytes()
			if err == nil {
				pprof.Do(context.Background(), harnessLabels, func(context.Context) { err = check() })
			}
			st.peaks = append(st.peaks, ph.disarm())
			st.uncovered += tr.endOp(c1 - c0)
			st.attempted++
			st.raw = append(st.raw, c1-c0)
			st.factors = append(st.factors, f)
			st.allocBytes += float64(a1 - a0)
			if err != nil {
				st.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", wl.name, pos, err)
				work = 0
			}
			st.work += work
			st.opWork = append(st.opWork, work)
		}
		st.rounds++
		tr.endRound()
		if wallNow(start)-t0 >= seconds {
			break
		}
	}
	runtime.GC()
	after := append(st.factors[1:], timeRef(wl.ref))
	for i, c := range st.raw {
		st.norm = append(st.norm, c/((st.factors[i]+after[i])/2))
	}
	return st
}

// workPerCPU is the median over rounds of work units per normalised
// CPU-second, so a slow spell of the host moves only the rounds it hit.
func (st *runStats) workPerCPU() float64 {
	var rates []float64
	for r := 0; r+st.roundLen <= len(st.norm); r += st.roundLen {
		work, cpu := 0.0, 0.0
		for i := r; i < r+st.roundLen; i++ {
			work += st.opWork[i]
			cpu += st.norm[i]
		}
		rates = append(rates, work/cpu)
	}
	return median(rates)
}

// print writes the run's raw figures beside the normalised ones.
func (st *runStats) print(log io.Writer, wl workload) {
	tailNorm, pct := tail(st.norm)
	tailRaw, _ := tail(st.raw)
	rawSum := 0.0
	for _, c := range st.raw {
		rawSum += c
	}
	fmt.Fprintf(log, "%s: %d ops in %d rounds (%d failed); work %.0f %s\n",
		wl.name, st.attempted, st.rounds, st.failed, st.work, wl.workUnit)
	fmt.Fprintf(log, "  host factor median %.4f (reference %.0f ms nominal)\n", median(st.factors), refNominal*1000)
	fmt.Fprintf(log, "  op CPU-s p50 %.4f normalised / %.4f raw; p%.1f (10 of %d samples beyond) %.4f normalised / %.4f raw\n",
		median(st.norm), median(st.raw), pct, st.attempted, tailNorm, tailRaw)
	fmt.Fprintf(log, "  work per CPU-s %.2f normalised / %.2f raw; alloc %.3f MB/op; mean op peak heap %.1f MB\n",
		st.workPerCPU(), st.work/rawSum, st.allocBytes/float64(st.attempted)/1e6, mean(st.peaks))
}

// endToEnd builds the untraced result line.
func (st *runStats) endToEnd(setupNorm float64) *result {
	tailNorm, _ := tail(st.norm)
	return &result{
		Correct:   st.failed == 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics: map[string]metric{
			"setup_s":         {setupNorm, "s"},
			"work_per_cpu_s":  {st.workPerCPU(), "work/s"},
			"op_cpu_s_p50":    {median(st.norm), "s"},
			"op_cpu_s_tail":   {tailNorm, "s"},
			"peak_heap_mb":    {mean(st.peaks), "MB"},
			"alloc_mb_per_op": {st.allocBytes / float64(st.attempted) / 1e6, "MB"},
		},
	}
}

// layerMetric names one per-layer metric and how it is derived.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics is every per-layer metric, in BENCHMARK.json order.
// Times are normalised CPU-s per op (per set-up for set-up layers);
// counts are per op. A layer a workload does not run reads 0.
var layerMetrics = []layerMetric{
	{"core.run_batch_s", "s", "lower"},
	{"core.new_workflow_s", "s", "lower"},
	{"core.analyze_log_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.events_per_cpu_s", "1/s", "higher"},
	{"sim.simsecs", "sim_s", "lower"},
	{"htcondor.userlog_mb", "MB", "lower"},
	{"stash.hit_ratio", "ratio", "higher"},
	{"ospool.started", "count", "lower"},
	{"ospool.evictions", "count", "lower"},
	{"ospool.useful_ratio", "ratio", "higher"},
	{"ospool.wasted_s", "sim_s", "lower"},
	{"dagman.retries", "count", "lower"},
	{"recovery.hedges", "count", "lower"},
	{"recovery.backoff_holds", "count", "lower"},
	{"recovery.breaker_opens", "count", "lower"},
	{"obs.snapshot_s", "s", "lower"},
	{"obs.spans_kept", "count", "lower"},
	{"obs.spans_dropped", "count", "lower"},
	{"expt.make_traces_s", "s", "lower"},
	{"wtrace.csv_s", "s", "lower"},
	{"burst.simulate_s", "s", "lower"},
	{"burst.replayed_simsecs", "sim_s", "higher"},
	{"burst.series_csv_s", "s", "lower"},
	{"burst.offloaded_jobs", "count", "lower"},
	{"geom.build_fault_s", "s", "lower"},
	{"fakequakes.distance_s", "s", "lower"},
	{"fakequakes.greens_s", "s", "lower"},
	{"fakequakes.rupture_s", "s", "lower"},
	{"linalg.cholesky_gflop", "GFLOP", "lower"},
	{"fakequakes.factor_hit_ratio", "ratio", "higher"},
	{"fakequakes.waveforms_s", "s", "lower"},
	{"mseed.encode_s", "s", "lower"},
	{"mseed.mb", "MB", "lower"},
	{"sim.self_cpu_share", "ratio", "lower"},
	{"ospool.self_cpu_share", "ratio", "lower"},
	{"htcondor.self_cpu_share", "ratio", "lower"},
	{"dagman.self_cpu_share", "ratio", "lower"},
	{"classad.self_cpu_share", "ratio", "lower"},
	{"stash.self_cpu_share", "ratio", "lower"},
	{"obs.self_cpu_share", "ratio", "lower"},
	{"burst.self_cpu_share", "ratio", "lower"},
	{"fakequakes.self_cpu_share", "ratio", "lower"},
	{"linalg.self_cpu_share", "ratio", "lower"},
	{"core.self_cpu_share", "ratio", "lower"},
	{"mseed.self_cpu_share", "ratio", "lower"},
	{"gc.self_cpu_share", "ratio", "lower"},
	{"runtime.self_cpu_share", "ratio", "lower"},
	{"other.self_cpu_share", "ratio", "lower"},
	{"trace.uncovered_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// setupLayers are the layer metrics timed during set-up.
var setupLayers = map[string]bool{
	"expt.make_traces_s": true, "wtrace.csv_s": true,
	"geom.build_fault_s": true, "fakequakes.distance_s": true, "fakequakes.greens_s": true,
}

// layerValues derives every per-layer metric of a traced run.
func layerValues(tr *tracer, setupSecs map[string]float64, st, plain *runStats, shares map[string]float64) map[string]metric {
	ops := float64(st.attempted)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	derived := map[string]float64{
		"sim.events_per_cpu_s":        ratio(tr.roundCount("sim.events")*float64(len(tr.rounds)), tr.secs["core.run_batch_s"]),
		"stash.hit_ratio":             ratio(tr.roundCount("stash.hits"), tr.roundCount("stash.lookups")),
		"ospool.useful_ratio":         ratio(tr.roundCount("ospool.completed"), tr.roundCount("ospool.started")),
		"fakequakes.factor_hit_ratio": ratio(tr.roundCount("fakequakes.factor_hits"), tr.roundCount("fakequakes.factor_lookups")),
		"trace.uncovered_s":           st.uncovered / ops,
		"trace.overhead_pct":          100 * (plain.workPerCPU()/st.workPerCPU() - 1),
	}
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		var v float64
		switch {
		case setupLayers[m.name]:
			v = setupSecs[m.name] / float64(setupReps)
		case strings.HasSuffix(m.name, ".self_cpu_share"):
			v = shares[strings.TrimSuffix(m.name, ".self_cpu_share")]
		default:
			d, isDerived := derived[m.name]
			switch {
			case isDerived:
				v = d
			case m.unit == "s":
				v = tr.secs[m.name] / ops
			default:
				v = tr.roundCount(m.name) / float64(st.roundLen)
			}
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}
