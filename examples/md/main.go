// Molecular dynamics example: a miniature of the paper's NAMD runs.
//
// A synthetic solvated box (96 three-site molecules, 288 atoms) runs NVE
// dynamics on the parallel patch-decomposed engine with full Ewald
// electrostatics: real-space erfc within the cutoff plus reciprocal-space
// PME evaluated every 4 steps over the distributed many-to-many FFT — the
// same multiple-timestepping configuration as the paper's benchmarks. The
// example reports energy conservation and migration statistics, then
// cross-checks the final state against the serial integrator and exits
// non-zero when a position deviates by more than 1e-9.
//
// Run: go run ./examples/md
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"blueq/internal/converse"
	"blueq/internal/fft3d"
	"blueq/internal/md"
	"blueq/internal/mdsim"
	"blueq/internal/pme"
)

func buildSystem() *md.System {
	s := md.WaterBox(md.WaterBoxConfig{Molecules: 96, Seed: 42})
	// Hot enough that atoms visibly migrate between patches during the run.
	s.Thermalize(1.2, rand.New(rand.NewSource(7)))
	return s
}

func main() {
	const (
		steps = 80
		dt    = 2e-4
		beta  = 0.8
	)
	nb := md.NonbondedParams{Cutoff: 4.0, SwitchDist: 3.2, EwaldBeta: beta}
	grid := [3]int{16, 16, 16}

	sys := buildSystem()
	fmt.Printf("system: %d atoms in a %.1f³ box, cutoff %.1f, PME %dx%dx%d every 4 steps\n",
		sys.N(), sys.Box.L[0], nb.Cutoff, grid[0], grid[1], grid[2])

	sim, err := mdsim.New(mdsim.Config{
		System:    sys,
		Nonbonded: nb,
		DT:        dt,
		Steps:     steps,
		PME: &mdsim.PMEConfig{
			Grid: grid, Order: 4, Beta: beta, Every: 4,
			// Full optimized PME (§IV-B.2): both the FFT transposes and
			// the charge/force exchange run over persistent m2m handles.
			Transport:   fft3d.M2M,
			ExchangeM2M: true,
		},
		Runtime: converse.Config{
			Nodes: 2, WorkersPerNode: 4,
			Mode: converse.ModeSMPComm, CommThreads: 1,
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("parallel: %d patches on %d PEs\n", sim.NumPatches(), sim.Runtime().NumPEs())

	start := time.Now()
	rep := sim.Run()
	wall := time.Since(start)

	fmt.Printf("ran %d steps (%d force evaluations, %d PME evaluations) in %.0f ms\n",
		rep.Steps, rep.ForceEvals, rep.RecipEvals, wall.Seconds()*1e3)
	fmt.Printf("energies: kinetic %.3f, LJ %.3f, elec %.3f, bond %.3f, angle %.3f, total %.3f\n",
		rep.Kinetic, rep.LJEnergy, rep.ElecEnergy, rep.BondEnergy, rep.AngleEnergy, rep.Total())
	fmt.Printf("atom migrations between patches: %d\n", rep.Migrations)

	// Cross-check against the serial integrator.
	ref := buildSystem()
	ff, err := pme.NewForceField(nb, pme.Config{Grid: grid, Order: 4, Beta: beta}, 4)
	if err != nil {
		panic(err)
	}
	in := md.NewIntegrator(dt, ff)
	for i := 0; i < steps; i++ {
		in.Step(ref)
	}
	got := sim.ExtractSystem()
	worst := 0.0
	for i := range ref.Pos {
		if d := ref.Box.MinImage(got.Pos[i].Sub(ref.Pos[i])).Norm(); d > worst {
			worst = d
		}
	}
	fmt.Printf("max position deviation vs serial integrator: %.2e (same physics)\n", worst)
	if !(worst <= 1e-9) {
		log.Fatal("the parallel run left the serial integrator's trajectory")
	}
}
