package main

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"fdw/internal/fakequakes"
	"fdw/internal/geom"
	"fdw/internal/mseed"
	"fdw/internal/sim"
)

// fqSubfaultKm is the mesh resolution of the fakequakes-jobs fault. At
// 40 km the Chilean mesh keeps the cold Phase B Green's functions for
// all 121 stations small enough to build on every run.
const fqSubfaultKm = 40

// fqScenarios is the number of rupture scenarios in one round. Each
// round starts with an empty factor cache, as a fresh rupture job does.
// The costliest scenarios set op_cpu_s_tail, so a round holds enough of
// them that the tail does not hang on one seed's largest rupture.
const fqScenarios = 128

// fqMinMw and fqMaxMw bound the seeded target magnitudes. Scenario k
// of a round draws its Mw from the k-th of fqScenarios equal bands, so
// every seed spans the whole range and seeds differ only within bands.
const fqMinMw, fqMaxMw = 7.8, 9.2

// fakequakesJobs runs FakeQuakes jobs at the paper's 121 stations: a
// Phase A rupture plus Phase C waveforms for every station, encoded to
// miniSEED in memory.
type fakequakesJobs struct {
	seed    uint64
	gen     *fakequakes.Generator
	gf      *fakequakes.GreensFunctions
	digests map[int]uint64 // per scenario, from its first run
}

func setupFakequakesJobs(seed uint64, tr *tracer) (instance, error) {
	var fault *geom.Fault
	err := tr.call("geom.build_fault_s", func() error {
		cfg := geom.DefaultChileFault()
		cfg.SubfaultKm = fqSubfaultKm
		var err error
		fault, err = geom.BuildFault(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	stations := geom.FullChileanStations()
	var dist *fakequakes.DistanceMatrices
	_ = tr.call("fakequakes.distance_s", func() error {
		dist = fakequakes.ComputeDistanceMatrices(fault, stations)
		return nil
	})
	w := &fakequakesJobs{seed: seed, digests: map[int]uint64{}}
	err = tr.call("fakequakes.greens_s", func() error {
		var err error
		w.gf, err = fakequakes.ComputeGreens(fault, stations, dist, fakequakes.DefaultGFConfig())
		return err
	})
	if err != nil {
		return nil, err
	}
	if w.gen, err = fakequakes.NewGenerator(fault, dist); err != nil {
		return nil, err
	}
	w.gen.Kern = fakequakes.VonKarmanApprox
	// Warm-up op: the first scenario.
	return w, warmUp(w, tr)
}

func (w *fakequakesJobs) roundLen() int { return fqScenarios }

// op runs scenario pos. Its check: the miniSEED decodes back and, from
// the scenario's second run on, its bytes repeat the first run's.
func (w *fakequakesJobs) op(pos int, tr *tracer) (float64, func() error, error) {
	if pos == 0 {
		w.gen.Factors = fakequakes.NewFactorCache(fakequakes.DefaultFactorCacheSize)
	}
	rng := sim.NewRNG(w.seed*1000 + uint64(pos))
	band := (fqMaxMw - fqMinMw) / fqScenarios
	mw := fqMinMw + band*(float64(pos)+rng.Float64())
	var rup *fakequakes.Rupture
	hitsBefore, missesBefore := w.gen.Factors.Stats()
	err := tr.call("fakequakes.rupture_s", func() error {
		var err error
		rup, err = w.gen.GenerateMw(fmt.Sprintf("run%06d", pos), mw, rng)
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	hits, misses := w.gen.Factors.Stats()
	if misses > missesBefore {
		n := float64(len(rup.Patch))
		tr.count("linalg.cholesky_gflop", n*n*n/3/1e9)
	}
	tr.count("fakequakes.factor_hits", float64(hits-hitsBefore))
	tr.count("fakequakes.factor_lookups", float64(hits+misses-hitsBefore-missesBefore))
	var wfs []fakequakes.Waveform
	err = tr.call("fakequakes.waveforms_s", func() error {
		var err error
		wfs, err = fakequakes.SynthesizeWaveforms(rup, w.gf, fakequakes.DefaultNoise(), rng)
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	var records []mseed.Record
	for i := range wfs {
		records = append(records, wfs[i].ToRecords()...)
	}
	var buf bytes.Buffer
	if err := tr.call("mseed.encode_s", func() error { return mseed.Write(&buf, records) }); err != nil {
		return 0, nil, err
	}
	tr.count("mseed.mb", float64(buf.Len())/1e6)
	return float64(len(wfs)), func() error { return w.check(pos, buf.Bytes(), records) }, nil
}

// check is the fakequakes-jobs output check.
func (w *fakequakesJobs) check(pos int, encoded []byte, records []mseed.Record) error {
	h := fnv.New64a()
	h.Write(encoded)
	d := h.Sum64()
	if want, seen := w.digests[pos]; seen && d != want {
		return fmt.Errorf("scenario %d: waveform bytes %016x != first run %016x", pos, d, want)
	}
	w.digests[pos] = d
	got, err := mseed.Read(bytes.NewReader(encoded))
	if err != nil {
		return fmt.Errorf("scenario %d: decoding miniSEED: %w", pos, err)
	}
	if len(got) != len(records) || len(records) != 3*len(geom.FullChileanStations()) {
		return fmt.Errorf("scenario %d: decoded %d records, encoded %d", pos, len(got), len(records))
	}
	for i := range got {
		if got[i].Station != records[i].Station || got[i].Channel != records[i].Channel || len(got[i].Samples) != len(records[i].Samples) {
			return fmt.Errorf("scenario %d: record %d decodes as %s.%s×%d, encoded %s.%s×%d", pos, i,
				got[i].Station, got[i].Channel, len(got[i].Samples), records[i].Station, records[i].Channel, len(records[i].Samples))
		}
	}
	return nil
}
