package md

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) || b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Fatal("add/sub wrong")
	}
	if a.Dot(b) != 32 || a.Scale(2) != (Vec3{2, 4, 6}) {
		t.Fatal("dot/scale wrong")
	}
	if math.Abs(a.Norm()-math.Sqrt(14)) > 1e-15 {
		t.Fatal("norm wrong")
	}
}

func TestBoxWrapMinImage(t *testing.T) {
	b := Box{L: Vec3{10, 20, 30}}
	p := b.Wrap(Vec3{-1, 25, 31})
	want := Vec3{9, 5, 1}
	for d := 0; d < 3; d++ {
		if math.Abs(p[d]-want[d]) > 1e-12 {
			t.Fatalf("Wrap = %v, want %v", p, want)
		}
	}
	d := b.MinImage(Vec3{9, -19, 16})
	want = Vec3{-1, 1, -14}
	for k := 0; k < 3; k++ {
		if math.Abs(d[k]-want[k]) > 1e-12 {
			t.Fatalf("MinImage = %v, want %v", d, want)
		}
	}
}

func TestQuickMinImageShortest(t *testing.T) {
	b := Box{L: Vec3{7, 11, 13}}
	f := func(x, y, z float64) bool {
		d := b.MinImage(Vec3{math.Mod(x, 100), math.Mod(y, 100), math.Mod(z, 100)})
		return math.Abs(d[0]) <= 3.5+1e-9 && math.Abs(d[1]) <= 5.5+1e-9 && math.Abs(d[2]) <= 6.5+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWaterBoxConstruction(t *testing.T) {
	s := WaterBox(WaterBoxConfig{Molecules: 64, Seed: 1})
	if s.N() != 192 {
		t.Fatalf("N = %d", s.N())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if q := s.NetCharge(); math.Abs(q) > 1e-12 {
		t.Fatalf("net charge %g", q)
	}
	if len(s.Bonds) != 128 || len(s.Angles) != 64 {
		t.Fatalf("bonds=%d angles=%d", len(s.Bonds), len(s.Angles))
	}
	// Density within 20% of requested.
	density := float64(s.N()) / s.Box.Volume()
	if density < 0.08 || density > 0.12 {
		t.Fatalf("density %g", density)
	}
}

func TestThermalizeAndDrift(t *testing.T) {
	s := WaterBox(WaterBoxConfig{Molecules: 27, Seed: 2})
	s.Thermalize(2.0, rand.New(rand.NewSource(3)))
	p := s.Momentum()
	if p.Norm() > 1e-9 {
		t.Fatalf("net momentum %v after Thermalize", p)
	}
	if s.KineticEnergy() <= 0 {
		t.Fatal("no kinetic energy after Thermalize")
	}
}

// Cell list pair enumeration must agree with the O(N²) loop.
func TestCellListMatchesBruteForce(t *testing.T) {
	s := WaterBox(WaterBoxConfig{Molecules: 40, Seed: 4})
	cutoff := 3.0
	cl := NewCellList(s, cutoff)
	cut2 := cutoff * cutoff
	fromCL := map[[2]int]bool{}
	cl.ForEachPair(func(i, j int) {
		if i > j {
			i, j = j, i
		}
		key := [2]int{i, j}
		if fromCL[key] {
			t.Fatalf("pair %v visited twice", key)
		}
		fromCL[key] = true
	})
	// Every within-cutoff pair must have been visited.
	for i := 0; i < s.N(); i++ {
		for j := i + 1; j < s.N(); j++ {
			r2 := s.Box.MinImage(s.Pos[i].Sub(s.Pos[j])).Norm2()
			if r2 < cut2 && !fromCL[[2]int{i, j}] {
				t.Fatalf("pair (%d,%d) at r=%g missed by cell list", i, j, math.Sqrt(r2))
			}
		}
	}
}

// Regression: with only two cells per dimension the +1/-1 neighbour
// offsets alias and pairs must still be visited exactly once.
func TestCellListTwoCellsNoDuplicates(t *testing.T) {
	s := WaterBox(WaterBoxConfig{Molecules: 30, Seed: 15})
	cutoff := s.Box.L[0] / 2.01 // forces nc=2 per dimension
	cl := NewCellList(s, cutoff)
	if cl.nc != [3]int{2, 2, 2} {
		t.Fatalf("expected 2x2x2 cells, got %v", cl.nc)
	}
	seen := map[[2]int]bool{}
	cl.ForEachPair(func(i, j int) {
		if i > j {
			i, j = j, i
		}
		if seen[[2]int{i, j}] {
			t.Fatalf("pair (%d,%d) visited twice", i, j)
		}
		seen[[2]int{i, j}] = true
	})
	// All pairs are within one box length, so every pair must appear.
	if want := s.N() * (s.N() - 1) / 2; len(seen) != want {
		t.Fatalf("visited %d pairs, want %d", len(seen), want)
	}
}

// Newton's third law: nonbonded + bonded forces sum to ~zero.
func TestForcesSumToZero(t *testing.T) {
	s := WaterBox(WaterBoxConfig{Molecules: 30, Seed: 5})
	f := NewForces(s.N())
	ComputeNonbonded(s, NonbondedParams{Cutoff: 5, SwitchDist: 4, EwaldBeta: 0.35}, f)
	ComputeBonded(s, f)
	var sum Vec3
	for _, fi := range f.F {
		sum = sum.Add(fi)
	}
	if sum.Norm() > 1e-8 {
		t.Fatalf("net force %v", sum)
	}
}

// A table over a force-like r^-3 curve stays within 1e-4 of the function.
func TestInterpolationTableAccuracy(t *testing.T) {
	f := func(r2 float64) float64 { return 1 / (r2 * math.Sqrt(r2)) }
	tab := NewInterpolationTable(f, 1, 144, 768)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		r2 := 1 + rng.Float64()*142.9
		got, want := tab.Lookup(r2), f(r2)
		if math.Abs(got-want) > 1e-4*math.Max(1, math.Abs(want)) {
			t.Fatalf("Lookup(%v) = %v, want %v", r2, got, want)
		}
	}
}

// The interpolation-table electrostatics must approximate direct erfc well.
func TestTableMatchesDirectErfc(t *testing.T) {
	s := WaterBox(WaterBoxConfig{Molecules: 50, Seed: 7})
	base := NonbondedParams{Cutoff: 5, EwaldBeta: 0.35}
	fd := NewForces(s.N())
	ComputeNonbonded(s, base, fd)
	base.TableBins = 4096
	ft := NewForces(s.N())
	ComputeNonbonded(s, base, ft)
	if rel := math.Abs(fd.ElecEnergy-ft.ElecEnergy) / math.Abs(fd.ElecEnergy); rel > 1e-4 {
		t.Fatalf("table elec energy off by %g rel", rel)
	}
}

// Forces must be the negative gradient of the energy (central differences).
func TestForcesAreEnergyGradient(t *testing.T) {
	s := WaterBox(WaterBoxConfig{Molecules: 8, Seed: 8})
	params := NonbondedParams{Cutoff: 4, SwitchDist: 3, EwaldBeta: 0.4}
	energy := func() float64 {
		f := NewForces(s.N())
		ComputeNonbonded(s, params, f)
		ComputeBonded(s, f)
		return f.PotentialEnergy()
	}
	f := NewForces(s.N())
	ComputeNonbonded(s, params, f)
	ComputeBonded(s, f)
	const h = 1e-6
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 12; trial++ {
		i := rng.Intn(s.N())
		d := rng.Intn(3)
		orig := s.Pos[i][d]
		s.Pos[i][d] = orig + h
		ep := energy()
		s.Pos[i][d] = orig - h
		em := energy()
		s.Pos[i][d] = orig
		grad := (ep - em) / (2 * h)
		want := -grad
		got := f.F[i][d]
		if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("atom %d dim %d: force %g, -dE/dx %g", i, d, got, want)
		}
	}
}

// NVE energy conservation over many steps: relative drift must stay tiny.
func TestEnergyConservationNVE(t *testing.T) {
	s := WaterBox(WaterBoxConfig{Molecules: 27, Seed: 10})
	s.Thermalize(0.5, rand.New(rand.NewSource(11)))
	ff := &BasicForceField{Params: NonbondedParams{Cutoff: 4.5, SwitchDist: 3.5, EwaldBeta: 0}}
	in := NewIntegrator(0.0001, ff)
	// Let the strained synthetic start relax before measuring drift.
	for i := 0; i < 100; i++ {
		in.Step(s)
	}
	e0 := in.TotalEnergy(s)
	for i := 0; i < 400; i++ {
		in.Step(s)
	}
	e1 := in.TotalEnergy(s)
	scale := math.Max(math.Abs(e0), s.KineticEnergy())
	if drift := math.Abs(e1 - e0); drift > 5e-4*scale {
		t.Fatalf("energy drift %g (E0=%g, E1=%g)", drift, e0, e1)
	}
}

// Momentum is conserved exactly by pairwise forces.
func TestMomentumConservation(t *testing.T) {
	s := WaterBox(WaterBoxConfig{Molecules: 27, Seed: 12})
	s.Thermalize(0.5, rand.New(rand.NewSource(13)))
	ff := &BasicForceField{Params: NonbondedParams{Cutoff: 4.5, SwitchDist: 3.5, EwaldBeta: 0.3}}
	in := NewIntegrator(0.0005, ff)
	for i := 0; i < 50; i++ {
		in.Step(s)
	}
	if p := s.Momentum(); p.Norm() > 1e-8 {
		t.Fatalf("momentum %v after 50 steps", p)
	}
}

// A straight angle (θ = π) has a well-defined energy but no defined force
// direction: AngleForces returns the energy with zero forces, and
// ComputeBonded counts that energy.
func TestAngleCollinear(t *testing.T) {
	box := Box{L: Vec3{10, 10, 10}}
	pi, pj, pk := Vec3{6, 5, 5}, Vec3{5, 5, 5}, Vec3{3.5, 5, 5}
	a := Angle{I: 0, J: 1, K: 2, Kth: 55, Theta0: 1.91}
	want := a.Kth * (math.Pi - a.Theta0) * (math.Pi - a.Theta0)
	fi, fj, fk, e, ok := AngleForces(box, pi, pj, pk, a)
	if !ok {
		t.Fatal("collinear angle reported undefined")
	}
	if math.Abs(e-want) > 1e-12*want {
		t.Fatalf("energy %g, want Kth(π-θ0)² = %g", e, want)
	}
	if fi != (Vec3{}) || fj != (Vec3{}) || fk != (Vec3{}) {
		t.Fatalf("forces %v %v %v, want zero", fi, fj, fk)
	}

	s := &System{Box: box, Pos: []Vec3{pi, pj, pk}, Angles: []Angle{a}}
	out := NewForces(3)
	ComputeBonded(s, out)
	if out.AngleEnergy != e {
		t.Fatalf("ComputeBonded angle energy %g, want %g", out.AngleEnergy, e)
	}
}

func TestLJSwitchContinuity(t *testing.T) {
	ron2, roff2 := 9.0, 16.0
	// Continuity at both ends.
	if sw, _ := ljSwitch(ron2, ron2, roff2); math.Abs(sw-1) > 1e-12 {
		t.Fatalf("sw(ron)=%g", sw)
	}
	if sw, _ := ljSwitch(roff2, ron2, roff2); math.Abs(sw) > 1e-12 {
		t.Fatalf("sw(roff)=%g", sw)
	}
	// Derivative consistency in the interior.
	for _, r2 := range []float64{10, 12, 15} {
		const h = 1e-7
		swp, _ := ljSwitch(r2+h, ron2, roff2)
		swm, _ := ljSwitch(r2-h, ron2, roff2)
		_, dsw := ljSwitch(r2, ron2, roff2)
		num := (swp - swm) / (2 * h)
		if math.Abs(num-dsw) > 1e-5 {
			t.Fatalf("dsw at %g: %g vs numeric %g", r2, dsw, num)
		}
	}
}

func TestBenchmarkSystemDescriptors(t *testing.T) {
	for _, b := range []BenchmarkSystem{ApoA1(), STMV20M(), STMV100M()} {
		if b.Atoms <= 0 || b.PMEGrid[0] <= 0 || b.CutoffA <= 0 {
			t.Fatalf("bad descriptor %+v", b)
		}
	}
	if ApoA1().Atoms != 92224 || STMV20M().PMEGrid != [3]int{216, 1080, 864} {
		t.Fatal("paper parameters wrong")
	}
}

func TestExclusions(t *testing.T) {
	s := WaterBox(WaterBoxConfig{Molecules: 4, Seed: 14})
	// Within a molecule (o, o+1, o+2) every pair is excluded (1-2 or 1-3).
	for m := 0; m < 4; m++ {
		o := 3 * m
		for _, pair := range [][2]int{{o, o + 1}, {o, o + 2}, {o + 1, o + 2}} {
			if !s.IsExcluded(pair[0], pair[1]) || !s.IsExcluded(pair[1], pair[0]) {
				t.Fatalf("intramolecular pair %v not excluded", pair)
			}
		}
	}
	if s.IsExcluded(0, 3) {
		t.Fatal("intermolecular pair excluded")
	}
	// ForEachExcludedPair visits each pair once: 3 per molecule.
	count := 0
	s.ForEachExcludedPair(func(i, j int) {
		if i >= j {
			t.Fatalf("pair (%d,%d) not ordered", i, j)
		}
		count++
	})
	if count != 12 {
		t.Fatalf("excluded pairs = %d, want 12", count)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	s := WaterBox(WaterBoxConfig{Molecules: 2, Seed: 1})
	s.Bonds = append(s.Bonds, Bond{I: 0, J: 99})
	if err := s.Validate(); err == nil {
		t.Fatal("bad bond accepted")
	}
	s2 := WaterBox(WaterBoxConfig{Molecules: 2, Seed: 1})
	s2.Charge = s2.Charge[:1]
	if err := s2.Validate(); err == nil {
		t.Fatal("mismatched charge slice accepted")
	}
}

func benchNonbonded(b *testing.B, tableBins int) {
	s := WaterBox(WaterBoxConfig{Molecules: 500, Seed: 20})
	p := NonbondedParams{Cutoff: 6, SwitchDist: 5, EwaldBeta: 0.35, TableBins: tableBins}
	f := NewForces(s.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Reset()
		ComputeNonbonded(s, p, f)
	}
}

func BenchmarkNonbondedDirect(b *testing.B) { benchNonbonded(b, 0) }
func BenchmarkNonbondedTable(b *testing.B)  { benchNonbonded(b, 768) }
