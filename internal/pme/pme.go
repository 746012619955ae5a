// Package pme implements smooth particle-mesh Ewald (Essmann et al.) for
// the long-range electrostatics of the MD engine — the computation the
// paper accelerates with CmiDirectManytomany (§IV-B.2).
//
// The reciprocal-space sum is evaluated by spreading charges onto a grid
// with cardinal B-splines, a 3D FFT, multiplication by the Ewald influence
// function, an inverse FFT, and force interpolation with the spline
// derivatives. The real-space erfc part lives in internal/md's pair
// kernel; the exclusion correction (subtracting erf terms for bonded
// pairs) is provided here so the combined force field implements full
// Ewald electrostatics. The per-term kernels — ExclusionPair, Influence
// and SelfEnergy — are shared with internal/mdsim's distributed PME, so
// the serial and parallel force fields evaluate each term through one
// function.
//
// Conventions: Coulomb constant 1, energy E = Σ_{i<j} qiqj/rij over all
// periodic images, splitting parameter β, reciprocal sum
// E_rec = 1/(2πV) Σ_{m≠0} exp(-π²m̂²/β²)/m̂² |S(m)|².
package pme

import (
	"fmt"
	"math"

	"blueq/internal/fft3d"
	"blueq/internal/md"
)

// Config parameterizes a PME computation.
type Config struct {
	Grid  [3]int  // FFT grid dimensions
	Order int     // B-spline interpolation order (4 in NAMD, 4..8 here)
	Beta  float64 // Ewald splitting parameter
}

func (c Config) validate() error {
	for d := 0; d < 3; d++ {
		if c.Grid[d] < c.Order {
			return fmt.Errorf("pme: grid dim %d (%d) smaller than order %d", d, c.Grid[d], c.Order)
		}
	}
	if c.Order < 2 || c.Order > 12 {
		return fmt.Errorf("pme: unsupported order %d", c.Order)
	}
	if c.Beta <= 0 {
		return fmt.Errorf("pme: beta %g", c.Beta)
	}
	return nil
}

// Recip is a serial PME reciprocal-space engine.
type Recip struct {
	cfg  Config
	grid *fft3d.Grid
	inf  *Influence
}

// NewRecip builds a PME engine for the given configuration.
func NewRecip(cfg Config) (*Recip, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Recip{cfg: cfg, grid: fft3d.NewGrid(cfg.Grid[0], cfg.Grid[1], cfg.Grid[2]), inf: NewInfluence(cfg)}, nil
}

// Influence is the Ewald influence function of a PME grid,
// D(m) = exp(-π²m̂²/β²)/m̂² · |b1(m1)|²|b2(m2)|²|b3(m3)|², with the Euler
// spline factors precomputed per dimension. Recip.Compute and the
// distributed PME of internal/mdsim both filter the transformed charge
// grid with it.
type Influence struct {
	cfg Config
	bsq [3][]float64 // bsq[d][m] = |b_d(m)|²
}

// NewInfluence precomputes the influence function of cfg's grid.
func NewInfluence(cfg Config) *Influence {
	in := &Influence{cfg: cfg}
	for d := 0; d < 3; d++ {
		in.bsq[d] = splineModuli(cfg.Grid[d], cfg.Order)
	}
	return in
}

// At returns D at grid frequency indices (m1, m2, m3) of box; D(0) = 0.
func (in *Influence) At(box md.Box, m1, m2, m3 int) float64 {
	if m1 == 0 && m2 == 0 && m3 == 0 {
		return 0
	}
	fx := float64(wrapFreq(m1, in.cfg.Grid[0])) / box.L[0]
	fy := float64(wrapFreq(m2, in.cfg.Grid[1])) / box.L[1]
	fz := float64(wrapFreq(m3, in.cfg.Grid[2])) / box.L[2]
	m2hat := fx*fx + fy*fy + fz*fz
	beta := in.cfg.Beta
	return math.Exp(-math.Pi*math.Pi*m2hat/(beta*beta)) / m2hat *
		in.bsq[0][m1] * in.bsq[1][m2] * in.bsq[2][m3]
}

// wrapFreq maps grid index m to the signed frequency in (-K/2, K/2].
func wrapFreq(m, k int) int {
	if m > k/2 {
		return m - k
	}
	return m
}

// SelfEnergy is the Ewald self term -β/√π Σ qi², which belongs to the
// diagonal of the reciprocal sum.
func SelfEnergy(beta float64, charges []float64) float64 {
	var q2 float64
	for _, c := range charges {
		q2 += c * c
	}
	return -beta / math.SqrtPi * q2
}

// BsplineWeights fills w and dw with the order B-spline values and
// derivatives covering scaled coordinate u, returning the first grid index
// (possibly negative; callers wrap). Exported for the distributed PME
// layer's charge spreading.
func BsplineWeights(order int, u float64, w, dw []float64) int {
	return bsplineWeights(order, u, w, dw)
}

// splineModuli returns |b(m)|² for m = 0..K-1, where
// b(m) = exp(2πi(n-1)m/K) / Σ_{k=0}^{n-2} M_n(k+1) exp(2πi mk/K).
func splineModuli(K, n int) []float64 {
	// M_n at integer arguments 1..n-1.
	mn := make([]float64, n)
	for k := 1; k < n; k++ {
		mn[k] = bsplineValue(n, float64(k))
	}
	out := make([]float64, K)
	for m := 0; m < K; m++ {
		var sre, sim float64
		for k := 0; k <= n-2; k++ {
			ang := 2 * math.Pi * float64(m) * float64(k) / float64(K)
			sre += mn[k+1] * math.Cos(ang)
			sim += mn[k+1] * math.Sin(ang)
		}
		den := sre*sre + sim*sim
		if den < 1e-10 {
			// Odd-order singularities at m = K/2: standard fix is to
			// interpolate from neighbours; zeroing the mode is also common.
			out[m] = 0
			continue
		}
		out[m] = 1 / den // |b|² = 1/|denominator|²
	}
	// Patch zeroed interior modes by averaging neighbours (Essmann's fix).
	for m := 1; m < K-1; m++ {
		if out[m] == 0 {
			out[m] = 0.5 * (out[m-1] + out[m+1])
		}
	}
	return out
}

// bsplineValue evaluates the cardinal B-spline M_n(u) by recursion.
func bsplineValue(n int, u float64) float64 {
	if n == 2 {
		if u < 0 || u > 2 {
			return 0
		}
		return 1 - math.Abs(u-1)
	}
	return u/float64(n-1)*bsplineValue(n-1, u) + (float64(n)-u)/float64(n-1)*bsplineValue(n-1, u-1)
}

// bsplineWeights fills w and dw with M_n(u - k) and its derivative for the
// Order consecutive grid points covering scaled coordinate u.
// k0 is the first grid index (may be negative; caller wraps).
func bsplineWeights(order int, u float64, w, dw []float64) (k0 int) {
	k0 = int(math.Floor(u)) - order + 1
	for j := 0; j < order; j++ {
		arg := u - float64(k0+j)
		w[j] = bsplineValue(order, arg)
		// M_n'(u) = M_{n-1}(u) - M_{n-1}(u-1)
		dw[j] = bsplineValue(order-1, arg) - bsplineValue(order-1, arg-1)
	}
	return k0
}

// Result carries the reciprocal-space outputs.
type Result struct {
	Energy float64
	// SelfEnergy is the self term -β/√π Σ qi², reported apart from
	// Energy (Compute adds both to f.ElecEnergy).
	SelfEnergy float64
}

// Compute evaluates reciprocal-space PME: energy returned, forces
// accumulated into f.F, and f.ElecEnergy incremented by the reciprocal
// energy. The self-energy term -β/√π Σqi² is also added (it belongs to the
// reciprocal sum's diagonal), so real-space erfc + Compute + exclusion
// correction = full Ewald.
func (r *Recip) Compute(s *md.System, f *md.Forces) Result {
	K1, K2, K3 := r.cfg.Grid[0], r.cfg.Grid[1], r.cfg.Grid[2]
	order := r.cfg.Order
	n := s.N()
	V := s.Box.Volume()

	// 1. Spread charges.
	q := r.grid
	for i := range q.Data {
		q.Data[i] = 0
	}
	type spreadRec struct {
		k0                        [3]int
		wx, wy, wz, dwx, dwy, dwz []float64
	}
	recs := make([]spreadRec, n)
	for i := 0; i < n; i++ {
		p := s.Box.Wrap(s.Pos[i])
		u1 := p[0] / s.Box.L[0] * float64(K1)
		u2 := p[1] / s.Box.L[1] * float64(K2)
		u3 := p[2] / s.Box.L[2] * float64(K3)
		rec := spreadRec{
			wx: make([]float64, order), wy: make([]float64, order), wz: make([]float64, order),
			dwx: make([]float64, order), dwy: make([]float64, order), dwz: make([]float64, order),
		}
		rec.k0[0] = bsplineWeights(order, u1, rec.wx, rec.dwx)
		rec.k0[1] = bsplineWeights(order, u2, rec.wy, rec.dwy)
		rec.k0[2] = bsplineWeights(order, u3, rec.wz, rec.dwz)
		recs[i] = rec
		qi := s.Charge[i]
		if qi == 0 {
			continue
		}
		for a := 0; a < order; a++ {
			ka := mod(rec.k0[0]+a, K1)
			qa := qi * rec.wx[a]
			for b := 0; b < order; b++ {
				kb := mod(rec.k0[1]+b, K2)
				qab := qa * rec.wy[b]
				base := (ka*K2 + kb) * K3
				for c := 0; c < order; c++ {
					kc := mod(rec.k0[2]+c, K3)
					q.Data[base+kc] += complex(qab*rec.wz[c], 0)
				}
			}
		}
	}
	// 2. Forward FFT.
	fft3d.SerialForward(q)

	// 3. Influence function D(m); energy accumulated as
	// (1/2πV)·Σ D|F(Q)|².
	energy := 0.0
	idx := 0
	for m1 := 0; m1 < K1; m1++ {
		for m2 := 0; m2 < K2; m2++ {
			for m3 := 0; m3 < K3; m3++ {
				v := q.Data[idx]
				d := r.inf.At(s.Box, m1, m2, m3)
				mag2 := real(v)*real(v) + imag(v)*imag(v)
				energy += d * mag2
				q.Data[idx] = v * complex(d, 0)
				idx++
			}
		}
	}
	energy /= 2 * math.Pi * V

	// 4. Inverse FFT: ψ grid; φ = (N_total/(πV))·ψ is the potential-like
	// grid with E = ½ΣQφ (see derivation in the package tests).
	fft3d.SerialInverse(q)
	scale := float64(K1*K2*K3) / (math.Pi * V)

	// 5. Force interpolation: F_i = -qi Σ φ(g) ∂(w1w2w3)/∂r_i.
	for i := 0; i < n; i++ {
		qi := s.Charge[i]
		if qi == 0 {
			continue
		}
		rec := recs[i]
		var gx, gy, gz float64
		for a := 0; a < order; a++ {
			ka := mod(rec.k0[0]+a, K1)
			for b := 0; b < order; b++ {
				kb := mod(rec.k0[1]+b, K2)
				base := (ka*K2 + kb) * K3
				for c := 0; c < order; c++ {
					kc := mod(rec.k0[2]+c, K3)
					phi := real(q.Data[base+kc]) * scale
					gx += rec.dwx[a] * rec.wy[b] * rec.wz[c] * phi
					gy += rec.wx[a] * rec.dwy[b] * rec.wz[c] * phi
					gz += rec.wx[a] * rec.wy[b] * rec.dwz[c] * phi
				}
			}
		}
		// d(u1)/dx = K1/Lx etc.
		f.F[i] = f.F[i].Sub(md.Vec3{
			qi * gx * float64(K1) / s.Box.L[0],
			qi * gy * float64(K2) / s.Box.L[1],
			qi * gz * float64(K3) / s.Box.L[2],
		})
	}

	self := SelfEnergy(r.cfg.Beta, s.Charge)
	f.ElecEnergy += energy + self
	return Result{Energy: energy, SelfEnergy: self}
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// ExclusionPair evaluates the correction for excluded atoms i and j of s
// at minimum-image displacement d = r_i - r_j: PME's reciprocal sum adds
// the full 1/r Ewald interaction between them, of which the real-space
// erfc part is skipped, so erf(βr)/r must be subtracted. The force on i is
// fr·d (and -fr·d on j). ok is false for an uncharged pair or coincident
// atoms.
func ExclusionPair(s *md.System, beta float64, i, j int, d md.Vec3) (fr, energy float64, ok bool) {
	qq := s.Charge[i] * s.Charge[j]
	r2 := d.Norm2()
	r := math.Sqrt(r2)
	if qq == 0 || r == 0 {
		return
	}
	erf := math.Erf(beta * r)
	// F_i for E = -qq·erf(βr)/r:
	// dE/dr = qq(erf/r² - 2β/√π·e^{-β²r²}/r); F_i = -dE/dr·d̂.
	fr = -qq * (erf/r - 2*beta/math.SqrtPi*math.Exp(-beta*beta*r2)) / r2
	return fr, -qq * erf / r, true
}

// ExclusionCorrection applies ExclusionPair to every excluded pair of s,
// accumulating forces into f and the energy into f.ElecEnergy, and
// returns the energy.
func ExclusionCorrection(s *md.System, beta float64, f *md.Forces) float64 {
	corr := 0.0
	s.ForEachExcludedPair(func(i, j int) {
		d := s.Box.MinImage(s.Pos[i].Sub(s.Pos[j]))
		fr, e, ok := ExclusionPair(s, beta, i, j, d)
		if !ok {
			return
		}
		corr += e
		fv := d.Scale(fr)
		f.F[i] = f.F[i].Add(fv)
		f.F[j] = f.F[j].Sub(fv)
	})
	f.ElecEnergy += corr
	return corr
}

// ForceField combines the cutoff nonbonded kernel, bonded terms, PME
// reciprocal space and the exclusion correction into full Ewald
// electrostatics — the force field NAMD integrates with. PMEEvery > 1
// reuses the previous reciprocal forces between PME steps, the multiple
// timestepping the paper's benchmarks use ("PME every 4 steps").
type ForceField struct {
	Nonbonded md.NonbondedParams
	Recip     *Recip
	PMEEvery  int

	step      int64
	recipF    []md.Vec3
	recipE    float64
	recipEval int64
}

// NewForceField builds the combined force field; nonbonded.EwaldBeta must
// equal cfg.Beta.
func NewForceField(nonbonded md.NonbondedParams, cfg Config, pmeEvery int) (*ForceField, error) {
	if nonbonded.EwaldBeta != cfg.Beta {
		return nil, fmt.Errorf("pme: real-space beta %g != reciprocal beta %g", nonbonded.EwaldBeta, cfg.Beta)
	}
	if pmeEvery < 1 {
		pmeEvery = 1
	}
	r, err := NewRecip(cfg)
	if err != nil {
		return nil, err
	}
	return &ForceField{Nonbonded: nonbonded, Recip: r, PMEEvery: pmeEvery}, nil
}

// RecipEvaluations returns how many times the reciprocal sum was computed.
func (ff *ForceField) RecipEvaluations() int64 { return ff.recipEval }

// Compute implements md.ForceField.
func (ff *ForceField) Compute(s *md.System, out *md.Forces) {
	out.Reset()
	md.ComputeNonbonded(s, ff.Nonbonded, out)
	md.ComputeBonded(s, out)
	ExclusionCorrection(s, ff.Nonbonded.EwaldBeta, out)
	if ff.recipF == nil || ff.step%int64(ff.PMEEvery) == 0 {
		if ff.recipF == nil {
			ff.recipF = make([]md.Vec3, s.N())
		}
		tmp := md.NewForces(s.N())
		res := ff.Recip.Compute(s, tmp)
		copy(ff.recipF, tmp.F)
		ff.recipE = res.Energy + res.SelfEnergy
		ff.recipEval++
	}
	ff.step++
	for i := range out.F {
		out.F[i] = out.F[i].Add(ff.recipF[i])
	}
	out.ElecEnergy += ff.recipE
}
