package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func randVec(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

// The sizes exercised by the paper: FFT benchmark grids (32, 64, 128) and
// PME grid dimensions (216, 864, 1080), plus primes and odd sizes.
var testSizes = []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 27, 32, 60, 64, 97, 101, 128, 216, 243, 360, 864, 1080}

// naiveSizes is every n in 1…256 — which covers every radix schedule the
// planner can emit (each prime radix up to naiveLimit alone, first, last and
// repeated; odd and even pass counts; stack and pooled scratch) — plus the
// large PME grids and Bluestein primes.
func naiveSizes() []int {
	sizes := []int{864, 1080, 67, 127, 1009}
	for n := 1; n <= 256; n++ {
		sizes = append(sizes, n)
	}
	return sizes
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	for _, n := range naiveSizes() {
		x := randVec(n, int64(n))
		want := DFTNaive(x)
		Forward(x)
		if e := maxErr(x, want); e > 1e-10*float64(n) {
			t.Errorf("n=%d %v: max error %g", n, schedule(n), e)
		}
	}
}

// The inverse is checked against the reference on its own, not through a
// round trip, so a matching pair of errors cannot cancel.
func TestInverseMatchesNaiveDFT(t *testing.T) {
	for _, n := range naiveSizes() {
		x := randVec(n, int64(n))
		// IDFT(x) = conj(DFT(conj(x)))/n.
		want := make([]complex128, n)
		for i, v := range x {
			want[i] = cmplx.Conj(v)
		}
		want = DFTNaive(want)
		for i, v := range want {
			want[i] = cmplx.Conj(v) / complex(float64(n), 0)
		}
		Inverse(x)
		if e := maxErr(x, want); e > 1e-10 {
			t.Errorf("n=%d %v: max error %g", n, schedule(n), e)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range testSizes {
		x := randVec(n, int64(2*n+1))
		y := append([]complex128(nil), x...)
		Forward(y)
		Inverse(y)
		if e := maxErr(x, y); e > 1e-9*float64(n) {
			t.Errorf("n=%d: round trip error %g", n, e)
		}
	}
}

// Parseval: Σ|x|² == Σ|X|²/n.
func TestParseval(t *testing.T) {
	for _, n := range []int{8, 27, 64, 216, 1080} {
		x := randVec(n, 7)
		var eTime float64
		for _, v := range x {
			eTime += real(v)*real(v) + imag(v)*imag(v)
		}
		Forward(x)
		var eFreq float64
		for _, v := range x {
			eFreq += real(v)*real(v) + imag(v)*imag(v)
		}
		eFreq /= float64(n)
		if math.Abs(eTime-eFreq) > 1e-8*eTime {
			t.Errorf("n=%d: Parseval violated: %g vs %g", n, eTime, eFreq)
		}
	}
}

// Linearity: F(a·x + y) == a·F(x) + F(y).
func TestLinearity(t *testing.T) {
	const n = 96
	x := randVec(n, 8)
	y := randVec(n, 9)
	a := complex(2.5, -1.25)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a*x[i] + y[i]
	}
	Forward(sum)
	Forward(x)
	Forward(y)
	want := make([]complex128, n)
	for i := range want {
		want[i] = a*x[i] + y[i]
	}
	if e := maxErr(sum, want); e > 1e-9 {
		t.Errorf("linearity error %g", e)
	}
}

// An impulse transforms to a constant; a constant transforms to an impulse.
func TestImpulseAndConstant(t *testing.T) {
	const n = 40
	imp := make([]complex128, n)
	imp[0] = 1
	Forward(imp)
	for i, v := range imp {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse bin %d = %v", i, v)
		}
	}
	con := make([]complex128, n)
	for i := range con {
		con[i] = 1
	}
	Forward(con)
	if cmplx.Abs(con[0]-complex(n, 0)) > 1e-9 {
		t.Fatalf("DC bin = %v", con[0])
	}
	for i := 1; i < n; i++ {
		if cmplx.Abs(con[i]) > 1e-9 {
			t.Fatalf("non-DC bin %d = %v", i, con[i])
		}
	}
}

// Time shift ↔ phase ramp: F(x shifted by s)[k] = F(x)[k]·exp(-2πi sk/n).
func TestShiftTheorem(t *testing.T) {
	const n = 54
	const s = 5
	x := randVec(n, 10)
	shifted := make([]complex128, n)
	for i := range shifted {
		shifted[i] = x[(i-s+n)%n]
	}
	Forward(x)
	Forward(shifted)
	for k := 0; k < n; k++ {
		ang := -2 * math.Pi * float64(s*k) / float64(n)
		sn, cs := math.Sincos(ang)
		want := x[k] * complex(cs, sn)
		if cmplx.Abs(shifted[k]-want) > 1e-9 {
			t.Fatalf("shift theorem fails at bin %d", k)
		}
	}
}

func TestBluesteinUsedForLargePrimes(t *testing.T) {
	p := MustPlan(127) // prime > naiveLimit
	if p.blu == nil {
		t.Fatal("prime 127 did not select Bluestein")
	}
	q := MustPlan(128)
	if q.blu != nil {
		t.Fatal("power of two selected Bluestein")
	}
	x := randVec(127, 11)
	want := DFTNaive(x)
	p.Forward(x)
	if e := maxErr(x, want); e > 1e-8 {
		t.Fatalf("Bluestein error %g", e)
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(0); err == nil {
		t.Fatal("NewPlan(0) accepted")
	}
	if _, err := NewPlan(-3); err == nil {
		t.Fatal("NewPlan(-3) accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	MustPlan(8).Forward(make([]complex128, 4))
}

func TestPlanCacheReturnsSame(t *testing.T) {
	a := MustPlan(48)
	b := MustPlan(48)
	if a != b {
		t.Fatal("plan cache returned different plans")
	}
}

func TestRadixSchedule(t *testing.T) {
	cases := map[int][]int{
		1: nil, 2: {2}, 8: {4, 2}, 12: {4, 3}, 16: {4, 4}, 216: {4, 2, 3, 3, 3}, 1080: {4, 2, 3, 3, 3, 5},
		97: {97}, 4096: {4, 4, 4, 4, 4, 4}, 77: {7, 11}, 2 * 61 * 61: {2, 61, 61}, 134: {2, 67},
	}
	for n, want := range cases {
		if got := schedule(n); !slices.Equal(got, want) {
			t.Errorf("schedule(%d) = %v, want %v", n, got, want)
		}
	}
}

// Steady-state transforms allocate nothing: scratch is on the stack up to
// stackLen and pooled per plan beyond it, Bluestein included.
func TestZeroAllocs(t *testing.T) {
	for _, n := range []int{16, 60, 61, 216, 1080, 127} {
		if raceEnabled && n > stackLen {
			continue // sync.Pool drops a share of Puts under the race detector
		}
		p := MustPlan(n)
		x := randVec(n, 3)
		roundTrip := func() { p.Forward(x); p.Inverse(x) }
		roundTrip() // warm the pools
		if a := testing.AllocsPerRun(200, roundTrip); a != 0 {
			t.Errorf("n=%d: %v allocs per forward+inverse", n, a)
		}
	}
}

// One cached plan driven from 8 goroutines at once gives results
// bit-identical to a single-goroutine run: the determinism the ft
// bitwise-recovery compares rely on, and the race job's view of the shared
// scratch pools.
func TestConcurrentUseIsBitIdentical(t *testing.T) {
	for _, n := range []int{16, 216, 1080, 127} {
		p := MustPlan(n)
		in := randVec(n, 5)
		want := append([]complex128(nil), in...)
		p.Forward(want)
		wantInv := append([]complex128(nil), want...)
		p.Inverse(wantInv)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := make([]complex128, n)
				for rep := 0; rep < 50; rep++ {
					copy(x, in)
					p.Forward(x)
					if !slices.Equal(x, want) {
						t.Errorf("n=%d: concurrent forward differs from the serial run", n)
						return
					}
					p.Inverse(x)
					if !slices.Equal(x, wantInv) {
						t.Errorf("n=%d: concurrent inverse differs from the serial run", n)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// Property: round trip holds for random sizes and inputs.
func TestQuickRoundTrip(t *testing.T) {
	f := func(n16 uint16, seed int64) bool {
		n := int(n16)%300 + 1
		x := randVec(n, seed)
		y := append([]complex128(nil), x...)
		Forward(y)
		Inverse(y)
		return maxErr(x, y) <= 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func benchSize(b *testing.B, n int) {
	p := MustPlan(n)
	x := randVec(n, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkFFT16(b *testing.B)   { benchSize(b, 16) }
func BenchmarkFFT127(b *testing.B)  { benchSize(b, 127) }
func BenchmarkFFT128(b *testing.B)  { benchSize(b, 128) }
func BenchmarkFFT216(b *testing.B)  { benchSize(b, 216) }
func BenchmarkFFT1080(b *testing.B) { benchSize(b, 1080) }
