package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fdw/internal/core/atomicfile"
)

// span is one timed call into a layer's public function. Spans of one
// op share Op; Parent is the id of the op's own span.
type span struct {
	ID     int     `json:"id"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	CPU    float64 `json:"cpu_s"`
}

// tracer records spans and per-layer totals. A nil or disabled tracer
// runs calls straight through, so ops execute the same code traced or
// not.
type tracer struct {
	on      bool
	start   time.Time
	factor  float64 // host-speed factor of the current op
	op      int     // id shared by the current op's spans
	opSpan  int     // id of the current op's own span
	covered float64 // raw CPU-s of the current op inside timed calls
	spans   []span
	secs    map[string]float64 // normalised CPU-s per layer metric
	counts  map[string]float64 // counts per layer metric, this round
	rounds  []map[string]float64
}

func newTracer(start time.Time) *tracer {
	return &tracer{start: start, factor: 1, op: -1, opSpan: -1,
		secs: map[string]float64{}, counts: map[string]float64{}}
}

// call runs fn as a span named after its layer metric.
func (t *tracer) call(name string, fn func() error) error {
	if t == nil || !t.on {
		return fn()
	}
	w0, c0 := wallNow(t.start), cpuSeconds()
	err := fn()
	c1, w1 := cpuSeconds(), wallNow(t.start)
	t.spans = append(t.spans, span{ID: len(t.spans), Op: t.op, Parent: t.opSpan, Name: name, Start: w0, End: w1, CPU: c1 - c0})
	t.secs[name] += (c1 - c0) / t.factor
	t.covered += c1 - c0
	return err
}

// count adds v to a per-layer count.
func (t *tracer) count(name string, v float64) {
	if t == nil || !t.on {
		return
	}
	t.counts[name] += v
}

// endRound closes the counts of one round of ops.
func (t *tracer) endRound() {
	if t == nil || !t.on {
		return
	}
	t.rounds = append(t.rounds, t.counts)
	t.counts = map[string]float64{}
}

// roundCount is a count's total over one round: the median over
// rounds, so a count that repeats round after round reads exactly the
// same however many rounds ran.
func (t *tracer) roundCount(name string) float64 {
	var v []float64
	for _, r := range t.rounds {
		v = append(v, r[name])
	}
	return median(v)
}

// beginOp opens the span of op id.
func (t *tracer) beginOp(id int, name string, factor float64) {
	if t == nil || !t.on {
		return
	}
	t.op, t.factor, t.covered = id, factor, 0
	t.opSpan = len(t.spans)
	w := wallNow(t.start)
	t.spans = append(t.spans, span{ID: t.opSpan, Op: id, Parent: -1, Name: name, Start: w, End: w})
}

// endOp closes the current op span and returns the raw CPU-s of the
// op that no timed call covered.
func (t *tracer) endOp(opCPU float64) float64 {
	if t == nil || !t.on {
		return 0
	}
	s := &t.spans[t.opSpan]
	s.End, s.CPU = wallNow(t.start), opCPU
	return opCPU - t.covered
}

// writeSpans stores the spans as JSON under dir.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(t.spans)
	})
}

// foldProfile reads a runtime/pprof CPU profile and returns each
// layer's share of the samples (see layerOf). Samples of the
// benchmark's own work (harnessLabels) are left out.
func foldProfile(prof []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if len(s.values) == 0 || p.isHarness(s) {
			continue
		}
		v := float64(s.values[0])
		total += v
		byLayer[p.layerOf(s.locs)] += v
	}
	if total == 0 {
		return byLayer, nil
	}
	keys := make([]string, 0, len(byLayer))
	for k := range byLayer {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	shares := make(map[string]float64, len(keys))
	for _, k := range keys {
		shares[k] = byLayer[k] / total
	}
	return shares, nil
}

type profSample struct {
	locs   []uint64
	values []int64
	labels [][2]int64 // (key, value) string indexes
}

type profile struct {
	samples []profSample
	locFunc map[uint64][]uint64 // location id -> function ids, leaf first
	funcStr map[uint64]int64    // function id -> name string index
	strs    []string
}

// names returns the function names at location loc, innermost first
// (several when calls were inlined).
func (p *profile) names(loc uint64) []string {
	var out []string
	for _, f := range p.locFunc[loc] {
		if n := p.str(p.funcStr[f]); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// isHarness reports whether a sample carries harnessLabels.
func (p *profile) isHarness(s profSample) bool {
	for _, kv := range s.labels {
		if p.str(kv[0]) == "perfbench" && p.str(kv[1]) == "harness" {
			return true
		}
	}
	return false
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// layerOf classifies one sample's stack: "gc" when any frame belongs to
// the collector, "runtime" for other runtime leaves (allocation, maps,
// scheduling), else the fdw/internal package of the innermost module
// frame, so a standard-library leaf such as strconv counts toward the
// layer that called it. Stacks with no module frame are "other".
func (p *profile) layerOf(locs []uint64) string {
	var names []string
	for _, l := range locs {
		names = append(names, p.names(l)...)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "runtime.gc") || strings.HasPrefix(n, "runtime.bgsweep") ||
			strings.HasPrefix(n, "runtime.bgscavenge") || n == "runtime.GC" {
			return "gc"
		}
	}
	if len(names) > 0 && layerOfFunc(names[0]) == "runtime" {
		return "runtime"
	}
	for _, n := range names {
		if l := layerOfFunc(n); l != "other" && l != "runtime" {
			return l
		}
	}
	return "other"
}

// layerOfFunc maps a symbol like "fdw/internal/sim.(*Kernel).Step" to
// its package's last path element ("sim"); runtime symbols map to
// "runtime" and anything else to "other".
func layerOfFunc(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return "other"
	}
	pkg := name[:slash+1+dot]
	switch {
	case pkg == "runtime":
		return "runtime"
	case strings.HasPrefix(pkg, "fdw/internal/"):
		return pkg[strings.LastIndex(pkg, "/")+1:]
	}
	return "other"
}

var errProto = errors.New("profile: malformed protobuf")

// parseProfile decodes the fields of profile.proto that folding needs:
// samples (field 2), locations (4), functions (5) and strings (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64][]uint64{}, funcStr: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s profSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, d)
				case 2:
					for _, u := range appendPacked(nil, w, v, d) {
						s.values = append(s.values, int64(u))
					}
				case 3:
					var kv [2]int64
					err := eachField(d, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 || lf == 2 {
							kv[lf-1] = int64(lv)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFunc[id] = funcs
			return err
		case 5:
			var id uint64
			name := int64(-1)
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcStr[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

// eachField walks one protobuf message, passing varints as v and
// length-delimited fields as data. Fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
