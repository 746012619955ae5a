package md

import "math"

// NonbondedParams configures the cutoff pair interactions.
type NonbondedParams struct {
	// Cutoff is the pair cutoff (12 Å in the paper's runs). Minimum-image
	// convention: keep it at or below half the smallest box edge.
	Cutoff     float64
	SwitchDist float64 // LJ switching starts here; 0 disables switching
	// EwaldBeta is the Ewald splitting parameter; > 0 adds the real-space
	// erfc(βr)/r electrostatic term (the PME direct-space part).
	EwaldBeta float64
	// TableBins > 0 evaluates erfc through the NAMD-style interpolation
	// table instead of calling erfc directly.
	TableBins int
}

// Forces holds force and energy accumulation for one evaluation.
type Forces struct {
	F              []Vec3
	LJEnergy       float64
	ElecEnergy     float64 // real-space Ewald part only
	BondEnergy     float64
	AngleEnergy    float64
	DihedralEnergy float64
	// Pairs is the number of pair interactions inside the cutoff.
	Pairs int64
}

// NewForces allocates a force accumulator for n atoms.
func NewForces(n int) *Forces { return &Forces{F: make([]Vec3, n)} }

// Reset zeroes the accumulator.
func (f *Forces) Reset() {
	for i := range f.F {
		f.F[i] = Vec3{}
	}
	f.LJEnergy, f.ElecEnergy, f.BondEnergy, f.AngleEnergy, f.DihedralEnergy = 0, 0, 0, 0, 0
	f.Pairs = 0
}

// PotentialEnergy returns the sum of all accumulated potential terms.
func (f *Forces) PotentialEnergy() float64 {
	return f.LJEnergy + f.ElecEnergy + f.BondEnergy + f.AngleEnergy + f.DihedralEnergy
}

// ---------------------------------------------------------------------------
// Cell list

// CellList bins atoms into cells of edge >= cutoff for O(N) pair search.
type CellList struct {
	nc    [3]int
	cells [][]int32
	box   Box
}

// NewCellList builds a cell list for the system at the given cutoff.
func NewCellList(s *System, cutoff float64) *CellList {
	cl := &CellList{box: s.Box}
	total := 1
	for d := 0; d < 3; d++ {
		cl.nc[d] = int(s.Box.L[d] / cutoff)
		if cl.nc[d] < 1 {
			cl.nc[d] = 1
		}
		total *= cl.nc[d]
	}
	cl.cells = make([][]int32, total)
	for i, p := range s.Pos {
		c := cl.cellOf(s.Box.Wrap(p))
		cl.cells[c] = append(cl.cells[c], int32(i))
	}
	return cl
}

func (cl *CellList) cellOf(p Vec3) int {
	var idx [3]int
	for d := 0; d < 3; d++ {
		idx[d] = int(p[d] / cl.box.L[d] * float64(cl.nc[d]))
		if idx[d] >= cl.nc[d] {
			idx[d] = cl.nc[d] - 1
		}
		if idx[d] < 0 {
			idx[d] = 0
		}
	}
	return (idx[0]*cl.nc[1]+idx[1])*cl.nc[2] + idx[2]
}

// ForEachPair invokes fn for every unordered atom pair in the same or
// neighbouring cells (periodic). Pairs are visited at most once: with
// fewer than three cells in some dimension the +1 and -1 offsets alias,
// so unordered cell pairs are deduplicated globally.
func (cl *CellList) ForEachPair(fn func(i, j int)) {
	nx, ny, nz := cl.nc[0], cl.nc[1], cl.nc[2]
	cellIndex := func(x, y, z int) int {
		return (x*ny+y)*nz + z
	}
	visited := make(map[[2]int32]bool)
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				c := cellIndex(x, y, z)
				atoms := cl.cells[c]
				// Pairs within the cell.
				for a := 0; a < len(atoms); a++ {
					for b := a + 1; b < len(atoms); b++ {
						fn(int(atoms[a]), int(atoms[b]))
					}
				}
				// Half the neighbour cells (13 of 26) so each unordered
				// cell pair is reached from one side in the generic case.
				for _, off := range halfNeighbours {
					xx := mod(x+off[0], nx)
					yy := mod(y+off[1], ny)
					zz := mod(z+off[2], nz)
					nc := cellIndex(xx, yy, zz)
					if nc == c {
						continue
					}
					key := [2]int32{int32(c), int32(nc)}
					if nc < c {
						key = [2]int32{int32(nc), int32(c)}
					}
					if visited[key] {
						continue
					}
					visited[key] = true
					for _, a := range atoms {
						for _, b := range cl.cells[nc] {
							fn(int(a), int(b))
						}
					}
				}
			}
		}
	}
}

// halfNeighbours enumerates 13 of the 26 neighbour offsets such that each
// unordered cell pair appears once.
var halfNeighbours = [13][3]int{
	{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
	{1, 1, 0}, {1, -1, 0}, {1, 0, 1}, {1, 0, -1},
	{0, 1, 1}, {0, 1, -1},
	{1, 1, 1}, {1, 1, -1}, {1, -1, 1}, {1, -1, -1},
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// ---------------------------------------------------------------------------
// Nonbonded kernels

// erfcTable is the NAMD-style interpolation table over r² for the
// real-space Ewald interaction (paper §IV-B.1's "large interpolation
// table").
type erfcTable struct {
	energy *InterpolationTable // erfc(βr)/r as function of r²
	force  *InterpolationTable // (erfc(βr)/r + 2β/√π·exp(-β²r²))/r² as fn of r²
}

func newErfcTable(beta, cutoff float64, bins int) *erfcTable {
	r2min := 1e-4
	r2max := cutoff*cutoff*1.01 + 1e-6
	e := func(r2 float64) float64 {
		r := math.Sqrt(r2)
		return math.Erfc(beta*r) / r
	}
	f := func(r2 float64) float64 {
		r := math.Sqrt(r2)
		return (math.Erfc(beta*r)/r + 2*beta/math.SqrtPi*math.Exp(-beta*beta*r2)) / r2
	}
	return &erfcTable{
		energy: NewInterpolationTable(e, r2min, r2max, bins),
		force:  NewInterpolationTable(f, r2min, r2max, bins),
	}
}

// ljSwitch returns the switching factor and its r-derivative factor for
// C1-continuous LJ truncation between SwitchDist and Cutoff (NAMD's
// switching function).
func ljSwitch(r2, ron2, roff2 float64) (sw, dswdr2 float64) {
	if r2 <= ron2 {
		return 1, 0
	}
	if r2 >= roff2 {
		return 0, 0
	}
	d := roff2 - ron2
	t := roff2 - r2
	sw = t * t * (roff2 + 2*r2 - 3*ron2) / (d * d * d)
	dswdr2 = 6 * t * (ron2 - r2) / (d * d * d) // d(sw)/d(r2)
	return sw, dswdr2
}

// PairKernel is the cutoff pair interaction: Lennard-Jones with
// Lorentz-Berthelot mixing and switching, plus the real-space Ewald term
// through the erfc table when NonbondedParams.TableBins asks for one. It
// is built once from NonbondedParams; ComputeNonbonded and the parallel
// patch engine both evaluate every pair through it.
type PairKernel struct {
	cut2, ron2, beta float64
	tab              *erfcTable
}

// NewPairKernel builds the pair kernel for p.
func NewPairKernel(p NonbondedParams) *PairKernel {
	k := &PairKernel{cut2: p.Cutoff * p.Cutoff, beta: p.EwaldBeta}
	k.ron2 = k.cut2
	if p.SwitchDist > 0 {
		k.ron2 = p.SwitchDist * p.SwitchDist
	}
	if p.EwaldBeta > 0 && p.TableBins > 0 {
		k.tab = newErfcTable(p.EwaldBeta, p.Cutoff, p.TableBins)
	}
	return k
}

// Eval evaluates atoms i and j of s at minimum-image displacement
// d = r_i - r_j: the force on i is fr·d (and -fr·d on j); elj and eel are
// the pair's switched LJ and real-space electrostatic energies. ok is
// false for an excluded pair, coincident atoms, or r at or beyond the
// cutoff.
func (k *PairKernel) Eval(s *System, i, j int, d Vec3) (fr, elj, eel float64, ok bool) {
	if s.IsExcluded(i, j) {
		return
	}
	r2 := d.Norm2()
	if r2 >= k.cut2 || r2 == 0 {
		return
	}
	// Lennard-Jones with Lorentz-Berthelot mixing and switching.
	eps := math.Sqrt(s.Eps[i] * s.Eps[j])
	sig := 0.5 * (s.Sigma[i] + s.Sigma[j])
	if eps != 0 {
		sr2 := sig * sig / r2
		sr6 := sr2 * sr2 * sr2
		sr12 := sr6 * sr6
		e := 4 * eps * (sr12 - sr6)
		dlj := 24 * eps * (2*sr12 - sr6) / r2 // -dE/dr / r
		sw, dsw := ljSwitch(r2, k.ron2, k.cut2)
		elj = e * sw
		fr += dlj*sw - e*dsw*2 // d(e·sw)/dr2 · (-2)
	}
	// Real-space Ewald.
	if k.beta > 0 {
		qq := s.Charge[i] * s.Charge[j]
		if qq != 0 {
			var fscale float64
			if k.tab != nil {
				eel = qq * k.tab.energy.Lookup(r2)
				fscale = qq * k.tab.force.Lookup(r2)
			} else {
				beta := k.beta
				r := math.Sqrt(r2)
				er := math.Erfc(beta * r)
				eel = qq * er / r
				fscale = qq * (er/r + 2*beta/math.SqrtPi*math.Exp(-beta*beta*r2)) / r2
			}
			fr += fscale
		}
	}
	return fr, elj, eel, true
}

// ComputeNonbonded evaluates LJ + real-space Ewald forces within the cutoff
// into out; p.TableBins selects direct or table erfc evaluation.
func ComputeNonbonded(s *System, p NonbondedParams, out *Forces) {
	k := NewPairKernel(p)
	NewCellList(s, p.Cutoff).ForEachPair(func(i, j int) {
		d := s.Box.MinImage(s.Pos[i].Sub(s.Pos[j]))
		fr, elj, eel, ok := k.Eval(s, i, j, d)
		if !ok {
			return
		}
		out.Pairs++
		out.LJEnergy += elj
		out.ElecEnergy += eel
		f := d.Scale(fr)
		out.F[i] = out.F[i].Add(f)
		out.F[j] = out.F[j].Sub(f)
	})
}

// ---------------------------------------------------------------------------
// Bonded terms

// BondForce evaluates the harmonic bond E = K(r - R0)² at the positions of
// its atoms I and J: the force on I is f (and -f on J). ok is false for
// coincident atoms.
func BondForce(box Box, pi, pj Vec3, b Bond) (f Vec3, energy float64, ok bool) {
	d := box.MinImage(pi.Sub(pj))
	r := d.Norm()
	if r == 0 {
		return
	}
	dr := r - b.R0
	// F_I = -dE/dr · d/r
	return d.Scale(-2 * b.K * dr / r), b.K * dr * dr, true
}

// AngleForces evaluates the harmonic angle E = Kth(θ - θ0)² at the
// positions of its atoms I, J (the vertex) and K, returning the per-atom
// forces and the energy. At a collinear geometry (sin θ below 1e-8) the
// force direction is undefined: the energy comes back with zero forces.
// ok is false when an arm has zero length.
func AngleForces(box Box, pi, pj, pk Vec3, a Angle) (fi, fj, fk Vec3, energy float64, ok bool) {
	rij := box.MinImage(pi.Sub(pj))
	rkj := box.MinImage(pk.Sub(pj))
	lij, lkj := rij.Norm(), rkj.Norm()
	if lij == 0 || lkj == 0 {
		return
	}
	cosT := rij.Dot(rkj) / (lij * lkj)
	cosT = math.Max(-1, math.Min(1, cosT))
	theta := math.Acos(cosT)
	dT := theta - a.Theta0
	energy = a.Kth * dT * dT
	// Force via -dE/dθ with standard geometric derivatives.
	sinT := math.Sqrt(1 - cosT*cosT)
	if sinT < 1e-8 {
		return fi, fj, fk, energy, true
	}
	c := 2 * a.Kth * dT / sinT
	fi = rkj.Scale(1 / (lij * lkj)).Sub(rij.Scale(cosT / (lij * lij))).Scale(c)
	fk = rij.Scale(1 / (lij * lkj)).Sub(rkj.Scale(cosT / (lkj * lkj))).Scale(c)
	return fi, fi.Add(fk).Scale(-1), fk, energy, true
}

// ComputeBonded accumulates harmonic bond, angle and torsion forces.
func ComputeBonded(s *System, out *Forces) {
	ComputeDihedrals(s, out)
	for _, b := range s.Bonds {
		f, e, ok := BondForce(s.Box, s.Pos[b.I], s.Pos[b.J], b)
		if !ok {
			continue
		}
		out.BondEnergy += e
		out.F[b.I] = out.F[b.I].Add(f)
		out.F[b.J] = out.F[b.J].Sub(f)
	}
	for _, a := range s.Angles {
		fi, fj, fk, e, ok := AngleForces(s.Box, s.Pos[a.I], s.Pos[a.J], s.Pos[a.K], a)
		if !ok {
			continue
		}
		out.AngleEnergy += e
		out.F[a.I] = out.F[a.I].Add(fi)
		out.F[a.K] = out.F[a.K].Add(fk)
		out.F[a.J] = out.F[a.J].Add(fj)
	}
}
