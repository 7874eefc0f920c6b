package main

import (
	"container/heap"
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// cpuSeconds returns the CPU time (user + system) the whole process has
// used so far. It covers every thread, so GC workers and the
// FakeQuakes kernels' goroutines are charged to the op that caused them.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// wallNow returns the monotonic wall clock in seconds since start.
// The benchmark times itself against the host clock by design: the run
// length and span timestamps are wall time.
func wallNow(start time.Time) float64 {
	return time.Since(start).Seconds() //lint:allow wallclock benchmark run length and span stamps are host time by definition
}

func hostNow() time.Time {
	return time.Now() //lint:allow wallclock benchmark run length and span stamps are host time by definition
}

// heapAllocBytes returns the cumulative bytes allocated on the Go heap.
func heapAllocBytes() uint64 { return readUint64Metric("/gc/heap/allocs:bytes") }

// heapGoalBytes returns the heap size at which the runtime starts its
// next collection: the height the heap climbs to between collections.
func heapGoalBytes() uint64 { return readUint64Metric("/gc/heap/goal:bytes") }

func readUint64Metric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakHeap tracks the largest heap goal over every GC cycle while it is
// armed; each arming starts afresh. A finalizer on a sentinel runs once per cycle and re-arms
// itself, so cycles in the middle of an op are seen, not only the
// state at op boundaries. It is disarmed while the reference kernel
// runs with the collector off, when the goal is unbounded.
type peakHeap struct {
	mu    sync.Mutex
	armed bool
	peak  uint64
}

type gcSentinel struct{ _ [16]byte }

func newPeakHeap() *peakHeap {
	p := &peakHeap{}
	p.plant()
	return p
}

func (p *peakHeap) plant() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		p.sample()
		p.plant()
	})
}

func (p *peakHeap) sample() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.armed {
		p.peak = max(p.peak, heapGoalBytes())
	}
}

// arm starts tracking from the current heap goal.
func (p *peakHeap) arm() {
	p.mu.Lock()
	p.armed, p.peak = true, 0
	p.mu.Unlock()
	p.sample()
}

// disarm stops tracking and returns the peak since arm in MB.
func (p *peakHeap) disarm() float64 {
	p.sample()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed = false
	return float64(p.peak) / 1e6
}

// The reference kernels measure host speed. Every CPU timing the
// benchmark reports is divided by the reference times measured just
// before and just after it and multiplied by the reference's nominal
// time, so timings read as CPU-seconds on a host where the reference
// takes exactly its nominal time. The kernels are owned by the
// benchmark, must stay the same code on every commit, and retain no
// heap after they return.

// refNominal is the reference kernels' nominal CPU time in seconds.
const refNominal = 0.010

// refEvent is one entry of refAlloc's event calendar.
type refEvent struct {
	at   float64
	seq  int
	name string
	tags []string
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)   { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)     { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any       { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }
func (q refQueue) peekAt() float64 { return q[0].at }

// refAlloc is an allocation-heavy discrete-event loop in miniature: it
// schedules small heap-allocated events on a calendar, keys them into a
// map, formats log lines and sorts a slice, the same mix of work as the
// simulated pool. It returns a checksum so nothing is optimized away.
func refAlloc() uint64 {
	var q refQueue
	byName := make(map[string]int)
	var log []byte
	x := uint64(0x9E3779B97F4A7C15)
	seq := 0
	for i := 0; i < 18000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		name := "job" + strconv.FormatUint(x%4096, 10)
		heap.Push(&q, &refEvent{at: float64(x%100000) / 7, seq: seq, name: name, tags: []string{name, "site"}})
		seq++
		if q.Len() > 256 {
			e := heap.Pop(&q).(*refEvent)
			byName[e.name]++
			log = strconv.AppendFloat(log[:0], e.at, 'f', 3, 64)
			log = append(log, e.tags[0]...)
		}
	}
	keys := make([]string, 0, len(byName))
	for k := range byName {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := uint64(len(log))
	for _, k := range keys {
		sum = sum*31 + uint64(byName[k])
	}
	if q.Len() > 0 {
		sum += uint64(q.peekAt())
	}
	return sum
}

// refFlopsPasses is the number of filter passes in one refFlops run.
const refFlopsPasses = 240

// refFlops is a cache-resident floating-point loop: a causal filter
// over a fixed 4,096-sample trace, the shape of the FakeQuakes
// convolution kernels. The work is split over every processor at once,
// as the kernels fan out, so it feels contention on each CPU they use;
// its total CPU time does not depend on the processor count.
func refFlops() uint64 {
	n := runtime.GOMAXPROCS(0)
	sums := make([]uint64, n)
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = filterPasses(refFlopsPasses / n)
		}(i)
	}
	wg.Wait()
	var sum uint64
	for _, v := range sums {
		sum ^= v
	}
	return sum
}

func filterPasses(passes int) uint64 {
	var trace [4096]float64
	for i := range trace {
		trace[i] = math.Sin(float64(i) * 0.01)
	}
	acc := 0.0
	for pass := 0; pass < passes; pass++ {
		for i := 64; i < len(trace); i++ {
			s := 0.0
			for k := 0; k < 8; k++ {
				s += trace[i-k*8] * float64(k+1)
			}
			acc += s * 1e-6
		}
	}
	return math.Float64bits(acc)
}

// refSink keeps the reference checksums observable.
var refSink uint64

// harnessLabels mark the benchmark's own work (the reference kernel and
// the output checks) in the traced run's CPU profile, so folding leaves
// it out.
var harnessLabels = pprof.Labels("perfbench", "harness")

// timeRef runs the reference kernel and returns its CPU seconds over
// its nominal time: the host-speed factor. The collector is off while
// it runs, so the factor does not depend on how full the program's heap
// happens to be.
func timeRef(kernel func() uint64) float64 {
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	c0 := cpuSeconds()
	pprof.Do(context.Background(), harnessLabels, func(context.Context) { refSink += kernel() })
	return (cpuSeconds() - c0) / refNominal
}

// median returns the middle value of xs (mean of the middle pair).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail returns the value with exactly ten samples above it — the
// highest percentile that still has ten samples beyond it — and that
// percentile. With fewer than eleven samples it returns the maximum.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	i := n - 11
	if i < 0 {
		i = n - 1
	}
	return s[i], 100 * float64(i+1) / float64(n)
}
