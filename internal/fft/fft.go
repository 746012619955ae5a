// Package fft provides one-dimensional complex-to-complex fast Fourier
// transforms for arbitrary lengths: a planned, iterative Stockham
// mixed-radix kernel for smooth sizes (the PME grids 216, 864, 1080 factor
// into 2·3·5) and Bluestein's chirp-z algorithm for large prime factors.
//
// It is the serial kernel under internal/fft3d's pencil-decomposed 3D FFT
// and internal/pme, standing in for the ESSL/FFTW library NAMD links
// against on Blue Gene/Q.
package fft

import (
	"fmt"
	"math"
	"sync"
)

// Plan holds the radix schedule and twiddle factors for transforms of one
// length. A plan is immutable once created and safe for concurrent use:
// every call brings its own scratch, and the result is a pure function of
// the input bits.
type Plan struct {
	n      int
	stages []stage    // radix schedule; empty for n == 1 and under Bluestein
	blu    *bluestein // non-nil when n has a prime factor > naiveLimit
	pool   sync.Pool  // *[]complex128 scratch for lengths beyond stackLen
}

// stage is one Stockham pass: a radix-r butterfly over m twiddle groups.
type stage struct {
	r, m int
	// tw[d][p*(r-1)+k-1] multiplies butterfly output k of group p in
	// direction d, in the order the pass reads them. The inverse's 1/n is
	// folded into the last stage's table (and c, for the untwiddled k = 0).
	tw [2][]complex128
	c  [2]float64
	// root[t] = exp(-2πi t/r), for the generic small-prime butterfly.
	root []complex128
}

const (
	fwd = iota
	inv

	// naiveLimit is the largest prime radix given a direct O(r²) butterfly;
	// lengths with a larger prime factor use Bluestein.
	naiveLimit = 61
	// stackLen is the longest transform whose scratch lives on the stack.
	stackLen = 64
)

var planCache sync.Map // int -> *Plan

// NewPlan returns a plan for length n (n >= 1). Plans are cached globally;
// repeated calls with the same n return the same plan.
func NewPlan(n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: invalid length %d", n)
	}
	if p, ok := planCache.Load(n); ok {
		return p.(*Plan), nil
	}
	p := &Plan{n: n}
	scratch := n
	if rs := schedule(n); len(rs) > 0 && rs[len(rs)-1] > naiveLimit {
		p.blu = newBluestein(n)
		scratch = p.blu.plan.n
	} else {
		p.stages = newStages(n, rs)
	}
	p.pool.New = func() any { b := make([]complex128, scratch); return &b }
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*Plan), nil
}

// MustPlan is NewPlan for known-good lengths; it panics on error.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

// schedule factors n into pass radices: 4s, then 2, 3s, 5s, then the
// remaining primes in ascending order (so the largest prime factor is last).
func schedule(n int) []int {
	var rs []int
	for _, r := range [...]int{4, 2, 3, 5} {
		for ; n%r == 0; n /= r {
			rs = append(rs, r)
		}
	}
	for f := 7; n > 1; f += 2 {
		if f*f > n {
			f = n
		}
		for ; n%f == 0; n /= f {
			rs = append(rs, f)
		}
	}
	return rs
}

// unit returns exp(sign·2πi t/n), reducing t mod n to keep the argument
// accurate.
func unit(sign float64, t, n int) complex128 {
	s, c := math.Sincos(sign * 2 * math.Pi * float64(t%n) / float64(n))
	return complex(c, s)
}

func newStages(n int, radices []int) []stage {
	stages := make([]stage, len(radices))
	rem := n
	for i, r := range radices {
		st := &stages[i]
		st.r, st.m, st.c = r, rem/r, [2]float64{1, 1}
		if i == len(radices)-1 {
			st.c[inv] = 1 / float64(n)
		}
		for p := 0; p < st.m; p++ {
			for k := 1; k < r; k++ {
				st.tw[fwd] = append(st.tw[fwd], unit(-1, p*k, rem))
				st.tw[inv] = append(st.tw[inv], scale(st.c[inv], unit(1, p*(r-k), rem)))
			}
		}
		for t := 0; t < r && r > 5; t++ {
			st.root = append(st.root, unit(-1, t, r))
		}
		rem = st.m
	}
	return stages
}

// Forward computes the unnormalized forward DFT of x in place.
// X[k] = Σ x[j]·exp(-2πi jk/n). len(x) must equal Len().
func (p *Plan) Forward(x []complex128) { p.transform(x, fwd) }

// Inverse computes the inverse DFT of x in place, scaled by 1/n, so that
// Inverse(Forward(x)) == x.
func (p *Plan) Inverse(x []complex128) { p.transform(x, inv) }

func (p *Plan) transform(x []complex128, d int) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: input length %d != plan length %d", len(x), p.n))
	}
	if p.blu == nil && p.n <= stackLen {
		var buf [stackLen]complex128
		p.passes(x, buf[:p.n], d)
		return
	}
	buf := p.pool.Get().(*[]complex128)
	if p.blu != nil {
		p.blu.transform(x, *buf, d)
	} else {
		p.passes(x, *buf, d)
	}
	p.pool.Put(buf)
}

// passes runs the stage schedule, ping-ponging between x and scratch. Every
// pass overwrites all of its destination, so stale scratch never leaks.
func (p *Plan) passes(x, scratch []complex128, d int) {
	src, dst := x, scratch
	if len(p.stages)%2 == 1 { // odd pass count: start in scratch so the last pass lands in x
		copy(scratch, x)
		src, dst = scratch, x
	}
	s := 1
	for i := range p.stages {
		st := &p.stages[i]
		switch st.r { // direct calls, so the stack scratch does not escape
		case 4:
			pass4(dst, src, st.tw[d], st.m, s, d, st.c[d])
		case 2:
			pass2(dst, src, st.tw[d], st.m, s, st.c[d])
		case 3:
			pass3(dst, src, st.tw[d], st.m, s, d, st.c[d])
		case 5:
			pass5(dst, src, st.tw[d], st.m, s, d, st.c[d])
		default:
			passN(dst, src, st.tw[d], st.root, st.r, st.m, s, d, st.c[d])
		}
		src, dst = dst, src
		s *= st.r
	}
}

// ---------------------------------------------------------------------------
// Stockham passes. With s interleaved sub-transforms of length r·m, a pass
// reads src[q + s(p + m·j)], j < r, applies the r-point butterfly, and
// writes output k, times its twiddle (k = 0: times the real c), to
// dst[q + s(r·p + k)] — natural order falls out of the write pattern, no bit
// reversal. The butterflies are written for the forward direction; the
// inverse r-point DFT is the forward one with outputs k and r-k trading
// places, so for d == inv a pass only swaps those destinations (and the
// stage's inverse twiddle table is laid out to match): no sign flips, no
// conjugation.

// lane returns the s-element run starting at index i·s.
func lane(x []complex128, i, s int) []complex128 { return x[i*s:][:s] }

// scale multiplies z by the real factor c.
func scale(c float64, z complex128) complex128 { return complex(c*real(z), c*imag(z)) }

// mulNegI returns -i·z.
func mulNegI(z complex128) complex128 { return complex(imag(z), -real(z)) }

func pass2(dst, src, tw []complex128, m, s int, c float64) {
	for p := 0; p < m; p++ {
		w1 := tw[p]
		x0, x1 := lane(src, p, s), lane(src, p+m, s)
		y0, y1 := lane(dst, 2*p, s), lane(dst, 2*p+1, s)
		for q := range x0 {
			y0[q] = scale(c, x0[q]+x1[q])
			y1[q] = (x0[q] - x1[q]) * w1
		}
	}
}

func pass3(dst, src, tw []complex128, m, s, d int, c float64) {
	const sin60 = 0.86602540378443864676372317075294
	k1, k2 := 1+d, 2-d
	for p := 0; p < m; p++ {
		w1, w2 := tw[2*p], tw[2*p+1]
		x0, x1, x2 := lane(src, p, s), lane(src, p+m, s), lane(src, p+2*m, s)
		y0, y1, y2 := lane(dst, 3*p, s), lane(dst, 3*p+k1, s), lane(dst, 3*p+k2, s)
		for q := range x0 {
			a0, t1, t2 := x0[q], x1[q]+x2[q], mulNegI(scale(sin60, x1[q]-x2[q]))
			t0 := a0 - scale(0.5, t1)
			y0[q] = scale(c, a0+t1)
			y1[q] = (t0 + t2) * w1
			y2[q] = (t0 - t2) * w2
		}
	}
}

func pass4(dst, src, tw []complex128, m, s, d int, c float64) {
	k1, k3 := 1+2*d, 3-2*d
	for p := 0; p < m; p++ {
		w1, w2, w3 := tw[3*p], tw[3*p+1], tw[3*p+2]
		x0, x1, x2, x3 := lane(src, p, s), lane(src, p+m, s), lane(src, p+2*m, s), lane(src, p+3*m, s)
		y0, y1, y2, y3 := lane(dst, 4*p, s), lane(dst, 4*p+k1, s), lane(dst, 4*p+2, s), lane(dst, 4*p+k3, s)
		for q := range x0 {
			t0, t1 := x0[q]+x2[q], x0[q]-x2[q]
			t2, t3 := x1[q]+x3[q], mulNegI(x1[q]-x3[q])
			y0[q] = scale(c, t0+t2)
			y1[q] = (t1 + t3) * w1
			y2[q] = (t0 - t2) * w2
			y3[q] = (t1 - t3) * w3
		}
	}
}

func pass5(dst, src, tw []complex128, m, s, d int, c float64) {
	const (
		cos72, sin72   = 0.30901699437494742410229341718282, 0.95105651629515357211643933337938
		cos144, sin144 = -0.80901699437494742410229341718282, 0.58778525229247312916870595463907
	)
	k1, k2, k3, k4 := 1+3*d, 2+d, 3-d, 4-3*d
	for p := 0; p < m; p++ {
		w1, w2, w3, w4 := tw[4*p], tw[4*p+1], tw[4*p+2], tw[4*p+3]
		x0, x1, x2, x3, x4 := lane(src, p, s), lane(src, p+m, s), lane(src, p+2*m, s), lane(src, p+3*m, s), lane(src, p+4*m, s)
		y0, y1, y2, y3, y4 := lane(dst, 5*p, s), lane(dst, 5*p+k1, s), lane(dst, 5*p+k2, s), lane(dst, 5*p+k3, s), lane(dst, 5*p+k4, s)
		for q := range x0 {
			a0 := x0[q]
			t1, t2, t3, t4 := x1[q]+x4[q], x2[q]+x3[q], x1[q]-x4[q], x2[q]-x3[q]
			m1 := a0 + scale(cos72, t1) + scale(cos144, t2)
			m2 := a0 + scale(cos144, t1) + scale(cos72, t2)
			n1 := mulNegI(scale(sin72, t3) + scale(sin144, t4))
			n2 := mulNegI(scale(sin144, t3) - scale(sin72, t4))
			y0[q] = scale(c, a0+t1+t2)
			y1[q] = (m1 + n1) * w1
			y2[q] = (m2 + n2) * w2
			y3[q] = (m2 - n2) * w3
			y4[q] = (m1 - n1) * w4
		}
	}
}

// passN is the direct O(r²) butterfly for the primes 7…naiveLimit.
func passN(dst, src, tw, root []complex128, r, m, s, d int, c float64) {
	var a [naiveLimit]complex128
	for p := 0; p < m; p++ {
		for q := 0; q < s; q++ {
			sum := complex128(0)
			for j := range a[:r] {
				a[j] = src[q+s*(p+m*j)]
				sum += a[j]
			}
			dst[q+s*r*p] = scale(c, sum)
			for k := 1; k < r; k++ {
				sum, t := a[0], 0
				for _, v := range a[1:r] {
					if t += k; t >= r {
						t -= r
					}
					sum += v * root[t]
				}
				dst[q+s*(r*p+k+d*(r-2*k))] = sum * tw[p*(r-1)+k-1]
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Bluestein chirp-z for lengths with a prime factor beyond naiveLimit

type bluestein struct {
	plan  *Plan           // power-of-two plan of length m >= 2n-1
	chirp [2][]complex128 // chirp[fwd][k] = exp(-iπ k²/n); chirp[inv] its conjugate
	fb    [2][]complex128 // transformed chirp filter; fb[inv] carries the 1/n
}

func newBluestein(n int) *bluestein {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	b := &bluestein{plan: MustPlan(m)} // power of two: no recursion into Bluestein
	for d, sign := range [2]float64{fwd: -1, inv: 1} {
		b.chirp[d], b.fb[d] = make([]complex128, n), make([]complex128, m)
		for k := 0; k < n; k++ {
			b.chirp[d][k] = unit(sign, k*k, 2*n) // exp(∓iπ k²/n), k² reduced mod 2n
			b.fb[d][k], b.fb[d][(m-k)%m] = unit(-sign, k*k, 2*n), unit(-sign, k*k, 2*n)
		}
		b.plan.Forward(b.fb[d])
	}
	for i, f := range b.fb[inv] {
		b.fb[inv][i] = scale(1/float64(n), f)
	}
	return b
}

// transform convolves with the chirp filter in fa: scratch of length m
// whose tail beyond len(x) may hold an earlier call's data.
func (b *bluestein) transform(x, fa []complex128, d int) {
	chirp := b.chirp[d]
	for k, v := range x {
		fa[k] = v * chirp[k]
	}
	clear(fa[len(x):])
	b.plan.Forward(fa)
	for i, f := range b.fb[d] {
		fa[i] *= f
	}
	b.plan.Inverse(fa)
	for k := range x {
		x[k] = fa[k] * chirp[k]
	}
}

// ---------------------------------------------------------------------------
// Convenience wrappers

// Forward transforms x in place with a cached plan.
func Forward(x []complex128) { MustPlan(len(x)).Forward(x) }

// Inverse inverse-transforms x in place (scaled) with a cached plan.
func Inverse(x []complex128) { MustPlan(len(x)).Inverse(x) }

// DFTNaive computes the DFT directly in O(n²); reference for tests.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j*k) / float64(n)
			s, c := math.Sincos(ang)
			sum += x[j] * complex(c, s)
		}
		out[k] = sum
	}
	return out
}
