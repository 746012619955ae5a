package mdsim

import (
	"math"
	"math/rand"
	"testing"

	"blueq/internal/converse"
	"blueq/internal/fft3d"
	"blueq/internal/md"
	"blueq/internal/pme"
)

func smallRuntime() converse.Config {
	return converse.Config{Nodes: 2, WorkersPerNode: 2, Mode: converse.ModeSMP}
}

func testSystem(mols int, seed int64) *md.System {
	s := md.WaterBox(md.WaterBoxConfig{Molecules: mols, Seed: seed})
	s.Thermalize(0.3, rand.New(rand.NewSource(seed+100)))
	return s
}

// Parallel prime evaluation must reproduce the serial cutoff force field:
// same energies and same per-atom forces. The table row uses a coarse
// erfc interpolation table, so it also shows the parallel path evaluates
// pairs through the table NonbondedParams.TableBins asks for.
func TestPrimeMatchesSerialCutoff(t *testing.T) {
	for _, tc := range []struct {
		name string
		bins int
	}{{"exact", 0}, {"table", 64}} {
		t.Run(tc.name, func(t *testing.T) {
			sys := testSystem(64, 1)
			nb := md.NonbondedParams{Cutoff: 4, SwitchDist: 3.2, EwaldBeta: 0.8, TableBins: tc.bins}
			serial := md.NewForces(sys.N())
			md.ComputeNonbonded(sys, nb, serial)
			md.ComputeBonded(sys, serial)
			if tc.bins > 0 {
				exact := md.NewForces(sys.N())
				md.ComputeNonbonded(sys, md.NonbondedParams{Cutoff: 4, SwitchDist: 3.2, EwaldBeta: 0.8}, exact)
				if rel := math.Abs(serial.ElecEnergy-exact.ElecEnergy) / math.Abs(exact.ElecEnergy); rel <= 1e-10 {
					t.Fatalf("%d-bin table is within %g of exact erfc: the row cannot tell the two apart", tc.bins, rel)
				}
			}

			sim, err := New(Config{
				System: sys, Nonbonded: nb, DT: 1e-4, Steps: 0, Runtime: smallRuntime(),
			})
			if err != nil {
				t.Fatal(err)
			}
			rep := sim.Run()

			if rel := math.Abs(rep.LJEnergy-serial.LJEnergy) / math.Abs(serial.LJEnergy); rel > 1e-10 {
				t.Fatalf("LJ %g vs serial %g", rep.LJEnergy, serial.LJEnergy)
			}
			if rel := math.Abs(rep.ElecEnergy-serial.ElecEnergy) / math.Abs(serial.ElecEnergy); rel > 1e-10 {
				t.Fatalf("elec %g vs serial %g", rep.ElecEnergy, serial.ElecEnergy)
			}
			if math.Abs(rep.BondEnergy-serial.BondEnergy) > 1e-9 || math.Abs(rep.AngleEnergy-serial.AngleEnergy) > 1e-9 {
				t.Fatalf("bonded %g/%g vs serial %g/%g", rep.BondEnergy, rep.AngleEnergy, serial.BondEnergy, serial.AngleEnergy)
			}
			pf := sim.ForcesByAtom()
			for i := range pf {
				if d := pf[i].Sub(serial.F[i]).Norm(); d > 1e-9*(1+serial.F[i].Norm()) {
					t.Fatalf("atom %d: parallel %v vs serial %v", i, pf[i], serial.F[i])
				}
			}
		})
	}
}

// Full trajectory equivalence against the serial integrator (cutoff-only).
func TestTrajectoryMatchesSerialCutoff(t *testing.T) {
	const steps = 10
	sysP := testSystem(40, 2)
	sysS := testSystem(40, 2)
	nb := md.NonbondedParams{Cutoff: 4, SwitchDist: 3.2}
	sim, err := New(Config{
		System: sysP, Nonbonded: nb, DT: 2e-4, Steps: steps, Runtime: smallRuntime(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	got := sim.ExtractSystem()

	in := md.NewIntegrator(2e-4, &md.BasicForceField{Params: nb})
	for i := 0; i < steps; i++ {
		in.Step(sysS)
	}
	for i := 0; i < sysS.N(); i++ {
		d := sysS.Box.MinImage(got.Pos[i].Sub(sysS.Pos[i])).Norm()
		if d > 1e-7 {
			t.Fatalf("atom %d drifted %g from serial trajectory", i, d)
		}
		if dv := got.Vel[i].Sub(sysS.Vel[i]).Norm(); dv > 1e-6 {
			t.Fatalf("atom %d velocity differs by %g", i, dv)
		}
	}
}

// PME: parallel prime evaluation equals the serial full-Ewald force field,
// for every transport combination including the fully m2m "optimized PME".
func TestPrimeMatchesSerialPME(t *testing.T) {
	cases := []struct {
		name     string
		tr       fft3d.Transport
		exchange bool
	}{
		{"p2p", fft3d.P2P, false},
		{"m2m-fft", fft3d.M2M, false},
		{"optimized-pme", fft3d.M2M, true},
		{"m2m-exchange-only", fft3d.P2P, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sys := testSystem(64, 3)
			beta := 0.8
			nb := md.NonbondedParams{Cutoff: 4, SwitchDist: 3.2, EwaldBeta: beta}
			grid := [3]int{16, 16, 16}
			sim, err := New(Config{
				System: sys, Nonbonded: nb, DT: 1e-4, Steps: 0,
				PME: &PMEConfig{Grid: grid, Order: 4, Beta: beta, Every: 4,
					Transport: tc.tr, ExchangeM2M: tc.exchange},
				Runtime: smallRuntime(),
			})
			if err != nil {
				t.Fatal(err)
			}
			rep := sim.Run()

			ff, err := pme.NewForceField(nb, pme.Config{Grid: grid, Order: 4, Beta: beta}, 4)
			if err != nil {
				t.Fatal(err)
			}
			serial := md.NewForces(sys.N())
			ff.Compute(sys, serial)

			if rel := math.Abs(rep.ElecEnergy-serial.ElecEnergy) / math.Abs(serial.ElecEnergy); rel > 1e-8 {
				t.Fatalf("elec %.12g vs serial %.12g (rel %g)", rep.ElecEnergy, serial.ElecEnergy, rel)
			}
			pf := sim.ForcesByAtom()
			for i := range pf {
				if d := pf[i].Sub(serial.F[i]).Norm(); d > 1e-8*(1+serial.F[i].Norm()) {
					t.Fatalf("atom %d: parallel %v vs serial %v", i, pf[i], serial.F[i])
				}
			}
			if rep.RecipEvals != 1 {
				t.Fatalf("recip evals = %d, want 1", rep.RecipEvals)
			}
		})
	}
}

// PME trajectory equivalence with multiple timestepping (PME every 4).
func TestTrajectoryMatchesSerialPME(t *testing.T) {
	const steps = 8
	sysP := testSystem(32, 4)
	sysS := testSystem(32, 4)
	beta := 0.8
	nb := md.NonbondedParams{Cutoff: 4, SwitchDist: 3.2, EwaldBeta: beta}
	grid := [3]int{16, 16, 16}
	sim, err := New(Config{
		System: sysP, Nonbonded: nb, DT: 2e-4, Steps: steps,
		PME: &PMEConfig{Grid: grid, Order: 4, Beta: beta, Every: 4,
			Transport: fft3d.M2M, ExchangeM2M: true}, // full optimized PME
		Runtime: converse.Config{Nodes: 2, WorkersPerNode: 2, Mode: converse.ModeSMPComm, CommThreads: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := sim.Run()
	got := sim.ExtractSystem()

	ff, err := pme.NewForceField(nb, pme.Config{Grid: grid, Order: 4, Beta: beta}, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := md.NewIntegrator(2e-4, ff)
	for i := 0; i < steps; i++ {
		in.Step(sysS)
	}
	for i := 0; i < sysS.N(); i++ {
		d := sysS.Box.MinImage(got.Pos[i].Sub(sysS.Pos[i])).Norm()
		if d > 1e-6 {
			t.Fatalf("atom %d drifted %g from serial PME trajectory", i, d)
		}
	}
	// 9 force evaluations (prime + 8): recip at 0, 4, 8 = 3 evaluations.
	if rep.RecipEvals != 3 {
		t.Fatalf("recip evals = %d, want 3", rep.RecipEvals)
	}
}

// Atoms migrate between patches during a longer hot run; identity and
// count are conserved and every atom sits in the right patch.
func TestMigrationConservesAtoms(t *testing.T) {
	sys := testSystem(64, 5)
	sys.Thermalize(2.0, rand.New(rand.NewSource(50))) // hot: fast migration
	nb := md.NonbondedParams{Cutoff: 4, SwitchDist: 3.2}
	sim, err := New(Config{
		System: sys, Nonbonded: nb, DT: 5e-4, Steps: 60, Runtime: smallRuntime(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := sim.Run()
	if rep.Migrations == 0 {
		t.Fatal("no migrations in a hot 60-step run")
	}
	counts := sim.AtomsPerPatch()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != sys.N() {
		t.Fatalf("atom count %d, want %d", total, sys.N())
	}
	// Identity: every id present exactly once, in its spatial patch.
	got := sim.ExtractSystem()
	seen := make([]bool, sys.N())
	for pi := 0; pi < sim.NumPatches(); pi++ {
		p := sim.patchArr.Element(pi).(*patch)
		for _, a := range p.atoms {
			if seen[a.id] {
				t.Fatalf("atom %d owned twice", a.id)
			}
			seen[a.id] = true
			if home := sim.patchOf(a.pos); home != pi {
				t.Fatalf("atom %d in patch %d, belongs to %d", a.id, pi, home)
			}
		}
	}
	_ = got
}

// Energy conservation of the parallel integrator with PME.
func TestParallelEnergyConservation(t *testing.T) {
	sys := testSystem(32, 6)
	beta := 0.8
	nb := md.NonbondedParams{Cutoff: 4, SwitchDist: 3.2, EwaldBeta: beta}
	mk := func(steps int) Report {
		s2 := testSystem(32, 6)
		sim, err := New(Config{
			System: s2, Nonbonded: nb, DT: 1e-4, Steps: steps,
			PME:     &PMEConfig{Grid: [3]int{16, 16, 16}, Order: 4, Beta: beta, Every: 1, Transport: fft3d.P2P},
			Runtime: smallRuntime(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	r0 := mk(20)
	r1 := mk(120)
	e0, e1 := r0.Total(), r1.Total()
	scale := math.Max(math.Abs(e0), r0.Kinetic)
	if drift := math.Abs(e1 - e0); drift > 5e-3*scale {
		t.Fatalf("energy drift %g over 100 steps (E20=%g E120=%g)", drift, e0, e1)
	}
	_ = sys
}

func TestConfigValidation(t *testing.T) {
	sys := testSystem(8, 7)
	base := Config{System: sys, Nonbonded: md.NonbondedParams{Cutoff: 4}, DT: 1e-4, Runtime: smallRuntime()}
	bad := base
	bad.DT = 0
	if _, err := New(bad); err == nil {
		t.Fatal("DT=0 accepted")
	}
	bad = base
	bad.System = nil
	if _, err := New(bad); err == nil {
		t.Fatal("nil system accepted")
	}
	bad = base
	bad.Nonbonded.Cutoff = 0
	if _, err := New(bad); err == nil {
		t.Fatal("cutoff 0 accepted")
	}
	bad = base
	bad.PatchGrid = [3]int{50, 1, 1} // patch thinner than cutoff
	if _, err := New(bad); err == nil {
		t.Fatal("sub-cutoff patches accepted")
	}
	bad = base
	bad.Nonbonded.EwaldBeta = 0.5
	bad.PME = &PMEConfig{Grid: [3]int{16, 16, 16}, Order: 4, Beta: 0.7, Every: 4}
	if _, err := New(bad); err == nil {
		t.Fatal("mismatched beta accepted")
	}
}

// Polymer chains with torsions: parallel trajectory still matches the
// serial integrator (the dihedral ownership rule is exercised when chains
// straddle patch boundaries).
func TestTrajectoryPolymerWithDihedrals(t *testing.T) {
	const steps = 8
	mk := func() *md.System {
		s := md.PolymerBox(md.PolymerBoxConfig{Chains: 9, Beads: 8, Seed: 11})
		s.Thermalize(0.3, rand.New(rand.NewSource(12)))
		return s
	}
	sysP, sysS := mk(), mk()
	nb := md.NonbondedParams{Cutoff: 3.5, SwitchDist: 2.8}
	sim, err := New(Config{
		System: sysP, Nonbonded: nb, DT: 2e-4, Steps: steps, Runtime: smallRuntime(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := sim.Run()
	if rep.DihedralEnergy == 0 {
		t.Fatal("no dihedral energy accumulated")
	}
	got := sim.ExtractSystem()

	in := md.NewIntegrator(2e-4, &md.BasicForceField{Params: nb})
	for i := 0; i < steps; i++ {
		in.Step(sysS)
	}
	for i := 0; i < sysS.N(); i++ {
		if d := sysS.Box.MinImage(got.Pos[i].Sub(sysS.Pos[i])).Norm(); d > 1e-7 {
			t.Fatalf("atom %d drifted %g from serial", i, d)
		}
	}
	if rel := math.Abs(rep.DihedralEnergy-in.Forces().DihedralEnergy) /
		math.Abs(in.Forces().DihedralEnergy); rel > 1e-9 {
		t.Fatalf("dihedral energy %g vs serial %g", rep.DihedralEnergy, in.Forces().DihedralEnergy)
	}
}

// A run on a single PE and a run on many PEs give identical physics.
func TestPECountInvariance(t *testing.T) {
	mk := func(rtc converse.Config) *md.System {
		sys := testSystem(27, 8)
		sim, err := New(Config{
			System: sys, Nonbonded: md.NonbondedParams{Cutoff: 4, SwitchDist: 3.2},
			DT: 2e-4, Steps: 5, Runtime: rtc,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run()
		return sim.ExtractSystem()
	}
	a := mk(converse.Config{Nodes: 1, WorkersPerNode: 1, Mode: converse.ModeSMP})
	b := mk(converse.Config{Nodes: 4, WorkersPerNode: 2, Mode: converse.ModeSMP})
	for i := range a.Pos {
		if d := a.Box.MinImage(a.Pos[i].Sub(b.Pos[i])).Norm(); d > 1e-8 {
			t.Fatalf("atom %d differs by %g between PE counts", i, d)
		}
	}
}
