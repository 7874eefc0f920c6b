package fdw_test

// The observability layer is strictly passive: attaching a metrics
// registry to an experiment must not change a single byte of the
// printed reports or CSVs, at any worker count. This is the repo-level
// guard for the internal/obs "record, never decide" contract.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"fdw"
	"fdw/internal/expt"
)

// fig2Output runs the Fig. 2 sweep at toy scale and returns the
// printed report and the CSV bytes.
func fig2Output(t *testing.T, metered bool, workers int) (report, csv []byte) {
	t.Helper()
	opt := fdw.DefaultExperimentOptions()
	opt.Scale = 0.002 // clamps every quantity to the 16-waveform floor
	opt.Seeds = []uint64{11}
	opt.Workers = workers
	var out bytes.Buffer
	opt.Out = &out
	if metered {
		opt.Obs = fdw.NewMetrics(nil)
	}
	rows, err := fdw.Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := expt.WriteFig2CSV(&csvBuf, rows); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), csvBuf.Bytes()
}

// fig5Output does the same for the bursting sweep, which exercises the
// burst-policy instrumentation path.
func fig5Output(t *testing.T, metered bool, workers int) (report, csv []byte) {
	t.Helper()
	opt := fdw.DefaultExperimentOptions()
	opt.Scale = 0.002
	opt.Seeds = []uint64{11}
	opt.Workers = workers
	var out bytes.Buffer
	opt.Out = &out
	if metered {
		opt.Obs = fdw.NewMetrics(nil)
	}
	cells, err := fdw.Fig5(opt)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := expt.WriteFig5CSV(&csvBuf, cells); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), csvBuf.Bytes()
}

func TestFiguresIdenticalWithMetricsEnabled(t *testing.T) {
	baseReport, baseCSV := fig2Output(t, false, 1)
	if len(baseReport) == 0 || len(baseCSV) == 0 {
		t.Fatal("baseline fig2 produced no output")
	}
	for _, c := range []struct {
		name    string
		metered bool
		workers int
	}{
		{"plain-j4", false, 4},
		{"metered-j1", true, 1},
		{"metered-j4", true, 4},
	} {
		report, csv := fig2Output(t, c.metered, c.workers)
		if !bytes.Equal(report, baseReport) {
			t.Errorf("fig2 report differs for %s", c.name)
		}
		if !bytes.Equal(csv, baseCSV) {
			t.Errorf("fig2 CSV differs for %s", c.name)
		}
	}

	burstReport, burstCSV := fig5Output(t, false, 1)
	meteredReport, meteredCSV := fig5Output(t, true, 4)
	if !bytes.Equal(burstReport, meteredReport) {
		t.Error("fig5 report differs with metrics enabled")
	}
	if !bytes.Equal(burstCSV, meteredCSV) {
		t.Error("fig5 CSV differs with metrics enabled")
	}
}

// TestMeteredRunRecordsActivity guards against the inverse failure:
// metrics silently wired to nothing. A metered Fig. 2 run must leave
// real counts behind.
func TestMeteredRunRecordsActivity(t *testing.T) {
	opt := fdw.DefaultExperimentOptions()
	opt.Scale = 0.002
	opt.Seeds = []uint64{11}
	opt.Workers = 4
	opt.Obs = fdw.NewMetrics(nil)
	if _, err := fdw.Fig2(opt); err != nil {
		t.Fatal(err)
	}
	snap := opt.Obs.Snapshot()
	var submissions uint64
	for _, c := range snap.Counters {
		if c.Name == "fdw_dagman_node_submissions_total" {
			submissions += c.Value
		}
	}
	if submissions == 0 {
		t.Fatal("metered run recorded no DAGMan node submissions")
	}
	if len(snap.Histograms) == 0 {
		t.Fatal("metered run recorded no histograms")
	}
}

// meteredSnapshot runs one campaign at toy scale with a single shared
// registry (the `fdwexp -metrics` mode) and returns its snapshot.
func meteredSnapshot(t *testing.T, run func(fdw.ExperimentOptions) error, workers int) *fdw.MetricsSnapshot {
	t.Helper()
	opt := fdw.DefaultExperimentOptions()
	opt.Scale = 0.002
	opt.Seeds = []uint64{11}
	opt.Workers = workers
	opt.Obs = fdw.NewMetrics(nil)
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	return opt.Obs.Snapshot()
}

// TestMetricsCountsExactAcrossWorkers pins what a shared-registry
// rollup keeps exact across -j: every counter (name, labels, value) and
// every histogram's observation and bucket counts. Histogram sums,
// gauge at/value pairs and span order accumulate in worker order and
// are deliberately not compared (DESIGN.md §8).
func TestMetricsCountsExactAcrossWorkers(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(fdw.ExperimentOptions) error
	}{
		{"chaos", func(o fdw.ExperimentOptions) error { _, err := fdw.Chaos(o); return err }},
		{"fig2", func(o fdw.ExperimentOptions) error { _, err := fdw.Fig2(o); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			one, four := meteredSnapshot(t, c.run, 1), meteredSnapshot(t, c.run, 4)
			if len(one.Counters) == 0 || len(one.Histograms) == 0 {
				t.Fatal("metered run recorded no counters or histograms")
			}
			counters := func(s *fdw.MetricsSnapshot) []string {
				var out []string
				for _, m := range s.Counters {
					out = append(out, fmt.Sprintf("%s%v=%d", m.Name, m.Labels, m.Value))
				}
				return out
			}
			hists := func(s *fdw.MetricsSnapshot) []string {
				var out []string
				for _, h := range s.Histograms {
					out = append(out, fmt.Sprintf("%s%v n=%d", h.Name, h.Labels, h.Count))
					for _, b := range h.Buckets {
						out = append(out, fmt.Sprintf("  le=%g %d", b.LE, b.Count))
					}
				}
				return out
			}
			if a, b := counters(one), counters(four); !reflect.DeepEqual(a, b) {
				t.Errorf("counters differ between -j 1 and -j 4:\n%v\n%v", a, b)
			}
			if a, b := hists(one), hists(four); !reflect.DeepEqual(a, b) {
				t.Errorf("histogram counts differ between -j 1 and -j 4:\n%v\n%v", a, b)
			}
		})
	}
}
