package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"fdw/internal/core"
	"fdw/internal/expt"
	"fdw/internal/faults"
	"fdw/internal/geom"
	"fdw/internal/htcondor"
	"fdw/internal/mseed"
	"fdw/internal/ospool"
)

// TestCorruptedBurstOutputCountsAsFailed runs a bursting round on
// small traces after corrupting one policy's set-up digest: exactly
// that op must be counted as failed, against every op attempted.
func TestCorruptedBurstOutputCountsAsFailed(t *testing.T) {
	opt := expt.DefaultOptions()
	opt.Scale = 0.02
	opt.Seeds = []uint64{3}
	batches, jobs, err := expt.MakeBatchTraces(opt)
	if err != nil {
		t.Fatal(err)
	}
	w := &fig56Bursting{batches: batches, jobs: jobs, policies: burstPolicies()}
	if err := w.prime(); err != nil {
		t.Fatal(err)
	}
	w.digests[5] ^= 1
	wl, err := findWorkload("fig56-bursting")
	if err != nil {
		t.Fatal(err)
	}
	st := measure(wl, w, 1e-9, nil, hostNow(), true)
	if st.attempted != w.roundLen() || st.failed != 1 {
		t.Fatalf("attempted %d failed %d, want %d and 1", st.attempted, st.failed, w.roundLen())
	}
	if res := st.endToEnd(1); res.Correct || res.Failed != 1 || res.Attempted != st.attempted {
		t.Fatalf("result %+v does not report the failure", res)
	}
}

// TestFig3CheckRejectsCorruptLog feeds the fig3-pool check a user log
// with one termination event removed and one with a shifted runtime.
func TestFig3CheckRejectsCorruptLog(t *testing.T) {
	env, err := core.NewEnv(5, ospool.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Waveforms = 64
	var log bytes.Buffer
	wf, err := core.NewWorkflow(cfg, env.Kernel, env.Pool, &log)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.RunBatch(env, []*core.Workflow{wf}, horizon); err != nil {
		t.Fatal(err)
	}
	events, err := htcondor.ParseUserLog(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.AnalyzeEvents(cfg.Name, events)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFig3(wf, st); err != nil {
		t.Fatalf("clean log rejected: %v", err)
	}
	shifted := *st
	shifted.RuntimeSecs += 5
	if checkFig3(wf, &shifted) == nil {
		t.Error("shifted runtime accepted")
	}
	for i, ev := range events {
		if ev.Type == htcondor.EventTerminated {
			events = append(events[:i:i], events[i+1:]...)
			break
		}
	}
	short, err := core.AnalyzeEvents(cfg.Name, events)
	if err != nil {
		t.Fatal(err)
	}
	if checkFig3(wf, short) == nil {
		t.Error("log missing a completion accepted")
	}
}

// TestFakequakesCheckRejectsCorruptBytes checks a repeat whose bytes
// differ from the first run, and miniSEED that does not decode.
func TestFakequakesCheckRejectsCorruptBytes(t *testing.T) {
	var records []mseed.Record
	for _, s := range geom.FullChileanStations() {
		for _, ch := range []string{"LXE", "LXN", "LXZ"} {
			records = append(records, mseed.Record{Network: "CL", Station: s.Name, Channel: ch, Dt: 1, Samples: []float64{1, 2, 3}})
		}
	}
	var buf bytes.Buffer
	if err := mseed.Write(&buf, records); err != nil {
		t.Fatal(err)
	}
	w := &fakequakesJobs{digests: map[int]uint64{}}
	if err := w.check(0, buf.Bytes(), records); err != nil {
		t.Fatalf("clean output rejected: %v", err)
	}
	flipped := bytes.Clone(buf.Bytes())
	flipped[len(flipped)-1] ^= 0xff
	if w.check(0, flipped, records) == nil {
		t.Error("changed bytes accepted as a repeat")
	}
	if (&fakequakesJobs{digests: map[int]uint64{}}).check(1, buf.Bytes()[:buf.Len()/2], records) == nil {
		t.Error("truncated miniSEED accepted")
	}
}

// TestChaosCheckRejectsLostJob hides a job's terminal state.
func TestChaosCheckRejectsLostJob(t *testing.T) {
	env, err := core.NewEnv(9, ospool.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Waveforms = 32
	wf, err := core.NewWorkflow(cfg, env.Kernel, env.Pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.RunBatch(env, []*core.Workflow{wf}, horizon); err != nil {
		t.Fatal(err)
	}
	if err := checkChaos(wf, 1); err != nil {
		t.Fatalf("clean cell rejected: %v", err)
	}
	wf.Schedd.AllJobs()[0].Status = htcondor.Running
	if checkChaos(wf, 1) == nil {
		t.Error("unaccounted job accepted")
	}
}

// TestChaosCheckAcceptsRefusedDAG runs the chaos cell (seed 31, op 346:
// the submit-errors plan) whose every submission the schedd refuses.
// The DAG terminates with no jobs, which conserves jobs and is no
// failure of the program.
func TestChaosCheckAcceptsRefusedDAG(t *testing.T) {
	w := &chaosMetered{seed: 31, plans: faults.StandardPlans()}
	if name := w.plans[(346/2)%len(w.plans)].Name; name != "submit-errors" {
		t.Fatalf("op 346 runs plan %q", name)
	}
	jobs, check, err := w.op(346, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(); err != nil {
		t.Errorf("refused DAG (%v jobs) rejected: %v", jobs, err)
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the metrics the
// benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, benchmark has %d", names, len(workloads))
	}
	e2e := (&runStats{roundLen: 1, norm: []float64{1}, raw: []float64{1}, opWork: []float64{1}, attempted: 1}).endToEnd(1).Metrics
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, benchmark prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): benchmark prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, benchmark prints %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if l := layerMetrics[i]; l.name != m.Name || l.unit != m.Unit || l.better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, l)
		}
	}
}

func TestLayerOfFunc(t *testing.T) {
	for sym, want := range map[string]string{
		"fdw/internal/sim.(*Kernel).Step":        "sim",
		"fdw/internal/core/atomicfile.WriteFile": "atomicfile",
		"runtime.mallocgc":                       "runtime",
		"sort.Slice":                             "other",
		"main.measure":                           "other",
		"fdw.GenerateScenario":                   "other",
	} {
		if got := layerOfFunc(sym); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", sym, got, want)
		}
	}
}

// TestTracedRunFoldsProfile runs a short traced fig3-pool run and checks
// that every per-layer metric is printed, the pool layers are counted,
// and the profile folds into shares that sum to at most one.
func TestTracedRunFoldsProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("traced run in -short mode")
	}
	res, err := run(os.Stderr, "fig3-pool", 2, 0.2, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run failed: %+v", res)
	}
	var missing []string
	for _, m := range layerMetrics {
		if _, ok := res.Metrics[m.name]; !ok {
			missing = append(missing, m.name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("missing per-layer metrics: %s", strings.Join(missing, ", "))
	}
	if v := res.Metrics["sim.events"].Value; v <= 0 {
		t.Errorf("sim.events = %v", v)
	}
	share := 0.0
	for _, m := range layerMetrics {
		if strings.HasSuffix(m.name, ".self_cpu_share") {
			share += res.Metrics[m.name].Value
		}
	}
	if share <= 0 || share > 1+1e-9 {
		t.Errorf("self_cpu_share values sum to %v", share)
	}
}
