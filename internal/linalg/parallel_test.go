package linalg

import (
	"math"
	"runtime"
	"testing"
)

// deterministic pseudo-random fill (splitmix64), independent of
// math/rand so the fixtures are stable.
type testRNG uint64

func (r *testRNG) next() float64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53)*2 - 1
}

func randomMatrix(rows, cols int, seed uint64) *Matrix {
	r := testRNG(seed)
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.next()
	}
	return m
}

// spdMatrix builds a covariance-like symmetric positive-definite matrix
// with exponentially decaying off-diagonal correlation.
func spdMatrix(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Data[i*n+j] = math.Exp(-math.Abs(float64(i-j)) / (float64(n)/8 + 1))
		}
	}
	m.AddDiag(1e-10)
	return m
}

func bitsEqual(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: element %d differs: %x vs %x (%v vs %v)",
				name, i, math.Float64bits(a[i]), math.Float64bits(b[i]), a[i], b[i])
		}
	}
}

// withProcs runs f with GOMAXPROCS set to procs, restoring it after.
func withProcs(procs int, f func()) {
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	f()
}

// Sizes straddle the fan-out cutoffs, odd chunk boundaries, and the
// benchmark sizes' shape (capped for test speed).
var paritySizes = []int{1, 2, 3, 7, 16, 33, 64, 129, 256}

// The one-worker path and the fanned-out path of each kernel must give
// the same bits: at GOMAXPROCS=1 nothing reaches the pool, at 4 every
// above-cutoff size does.
func TestParallelCholeskyBitIdentical(t *testing.T) {
	for _, n := range paritySizes {
		m := spdMatrix(n)
		var want, got *Matrix
		var errW, errG error
		withProcs(1, func() { want, errW = Cholesky(m) })
		withProcs(4, func() { got, errG = Cholesky(m) })
		if errW != nil || errG != nil {
			t.Fatalf("n=%d: %v / %v", n, errW, errG)
		}
		bitsEqual(t, "cholesky", want.Data, got.Data)
	}
}

func TestParallelCholeskyErrors(t *testing.T) {
	withProcs(4, func() {
		if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
			t.Fatal("non-square accepted")
		}
		bad := NewMatrix(300, 300) // all-zero: not positive definite
		if _, err := Cholesky(bad); err != ErrNotPositiveDefinite {
			t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
		}
	})
}

func TestParallelMulBitIdentical(t *testing.T) {
	for _, n := range paritySizes {
		a := randomMatrix(n, n+3, uint64(n))
		b := randomMatrix(n+3, n+1, uint64(n)+1000)
		var want, got *Matrix
		var errW, errG error
		withProcs(1, func() { want, errW = a.Mul(b) })
		withProcs(4, func() { got, errG = a.Mul(b) })
		if errW != nil || errG != nil {
			t.Fatalf("n=%d: %v / %v", n, errW, errG)
		}
		bitsEqual(t, "mul", want.Data, got.Data)
	}
	a := NewMatrix(2, 3)
	if _, err := a.Mul(NewMatrix(4, 2)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestParallelMulVecBitIdentical(t *testing.T) {
	for _, n := range paritySizes {
		a := randomMatrix(n, 2*n+1, uint64(n))
		x := randomMatrix(1, 2*n+1, uint64(n)+5000).Data
		var want, got []float64
		var errW, errG error
		withProcs(1, func() { want, errW = a.MulVec(x) })
		withProcs(4, func() { got, errG = a.MulVec(x) })
		if errW != nil || errG != nil {
			t.Fatalf("n=%d: %v / %v", n, errW, errG)
		}
		bitsEqual(t, "mulvec", want, got)
	}
	if _, err := NewMatrix(2, 3).MulVec(make([]float64, 5)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// The kernels must give the same bits whatever GOMAXPROCS says, since
// each element's reduction is never split across workers.
func TestParallelKernelsAcrossGOMAXPROCS(t *testing.T) {
	n := 192
	m := spdMatrix(n)
	a := randomMatrix(n, n, 9)
	b := randomMatrix(n, n, 10)

	var l1, p1 *Matrix
	var errL, errP error
	withProcs(1, func() {
		l1, errL = Cholesky(m)
		p1, errP = a.Mul(b)
	})
	if errL != nil || errP != nil {
		t.Fatal(errL, errP)
	}
	lN, err := Cholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	pN, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "cholesky gomaxprocs", l1.Data, lN.Data)
	bitsEqual(t, "mul gomaxprocs", p1.Data, pN.Data)
}

func TestParallelFor(t *testing.T) {
	// Covers every index exactly once, for chunked and inline paths.
	for _, n := range []int{0, 1, 5, 64, 1000} {
		seen := make([]int, n)
		ParallelFor(n, 3, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}
