// Package mdsim is the parallel mini-NAMD of the reproduction: a
// NAMD-style molecular dynamics application on the Charm++ runtime
// (paper §IV-B).
//
// Space is decomposed into patches (a chare array); each step patches
// exchange coordinates and migrating atoms with their 26 neighbours,
// compute cutoff nonbonded and bonded forces, and — every PMEEvery steps —
// evaluate reciprocal-space PME: charges are spread to B-spline grid
// contributions, shipped to the pencil owners of the distributed 3D FFT
// engine, convolved with the Ewald influence function via
// forward-filter-backward transforms, and interpolated forces are shipped
// back. Velocity-Verlet integration closes the step.
//
// The static molecular structure (charges, masses, bonds, exclusions) is
// replicated — exactly as NAMD replicates its Molecule object — while all
// dynamic state (positions, velocities, forces) moves by messages.
package mdsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/fft3d"
	"blueq/internal/m2m"
	"blueq/internal/md"
	"blueq/internal/pme"
)

// PMEConfig enables reciprocal-space PME.
type PMEConfig struct {
	Grid  [3]int
	Order int
	Beta  float64
	// Every evaluates the reciprocal sum every k force evaluations
	// (k=4 in the paper's benchmarks); between evaluations the per-atom
	// reciprocal forces are reused.
	Every int
	// Transport selects p2p vs many-to-many for the FFT transposes.
	Transport fft3d.Transport
	// ExchangeM2M routes the charge-grid scatter and force-return phases
	// through persistent CmiDirectManytomany handles as well — the
	// paper's "new optimized PME" (§IV-B.2), where the application only
	// calls CmiDirectManytomany_start each iteration.
	ExchangeM2M bool
}

// Config describes a parallel MD run.
type Config struct {
	System    *md.System
	Nonbonded md.NonbondedParams
	DT        float64
	Steps     int
	PME       *PMEConfig
	// PatchGrid is patches per dimension; zero selects one patch per
	// cutoff-sized cell (min 1).
	PatchGrid [3]int
	// Runtime is the Converse machine configuration.
	Runtime converse.Config
}

// Report summarizes a completed run.
type Report struct {
	Steps          int
	ForceEvals     int
	RecipEvals     int
	Kinetic        float64
	Potential      float64
	LJEnergy       float64
	ElecEnergy     float64
	BondEnergy     float64
	AngleEnergy    float64
	DihedralEnergy float64
	Migrations     int64
}

// Total returns kinetic + potential energy.
func (r Report) Total() float64 { return r.Kinetic + r.Potential }

// Simulation is a declared parallel MD application. Build with New, run
// once with Run.
type Simulation struct {
	cfg Config
	rt  *charm.Runtime

	px, py, pz int
	patchArr   *charm.Array
	coordGrp   *charm.Group
	eng        *fft3d.Engine
	// Optimized-PME persistent burst handles (nil on the p2p path).
	hCharges, hReply *m2m.Handle

	ePatchStep, eExchange, ePatchPME int
	eCharges, eRecipBack, eStepDone  int

	selfEnergy float64

	// static topology lookup: atom id -> indices into System.Bonds/Angles/
	// Dihedrals
	bondsOf     [][]int32
	anglesOf    [][]int32
	dihedralsOf [][]int32
	// number of PEs that home at least one patch (charge-message senders)
	sendingPEs int

	// driver state, mutated only on PE 0's scheduler
	stepsDone   int
	evalCount   int
	patchesDone int
	recipEvals  int

	// per-evaluation energy accumulation
	emu         sync.Mutex
	energies    Report
	recipAccum  float64
	recipParts  int
	recipEnergy float64

	migrations atomic.Int64
}

// New validates the configuration and declares the application on a fresh
// runtime.
func New(cfg Config) (*Simulation, error) {
	if cfg.System == nil {
		return nil, fmt.Errorf("mdsim: nil system")
	}
	if err := cfg.System.Validate(); err != nil {
		return nil, err
	}
	if cfg.DT <= 0 {
		return nil, fmt.Errorf("mdsim: DT = %g", cfg.DT)
	}
	if cfg.Steps < 0 {
		return nil, fmt.Errorf("mdsim: Steps = %d", cfg.Steps)
	}
	if cfg.Nonbonded.Cutoff <= 0 {
		return nil, fmt.Errorf("mdsim: cutoff = %g", cfg.Nonbonded.Cutoff)
	}
	if cfg.PME != nil {
		if cfg.PME.Every < 1 {
			cfg.PME.Every = 1
		}
		if cfg.PME.Beta != cfg.Nonbonded.EwaldBeta {
			return nil, fmt.Errorf("mdsim: PME beta %g != nonbonded EwaldBeta %g", cfg.PME.Beta, cfg.Nonbonded.EwaldBeta)
		}
	}
	rt, err := charm.NewRuntime(cfg.Runtime)
	if err != nil {
		return nil, err
	}
	s := &Simulation{cfg: cfg, rt: rt}
	s.px, s.py, s.pz = s.choosePatchGrid()
	for d, p := range []int{s.px, s.py, s.pz} {
		if size := cfg.System.Box.L[d] / float64(p); p > 1 && size < cfg.Nonbonded.Cutoff {
			return nil, fmt.Errorf("mdsim: patch size %g in dim %d below cutoff %g", size, d, cfg.Nonbonded.Cutoff)
		}
	}

	var mgr *m2m.Manager
	if cfg.PME != nil && (cfg.PME.Transport == fft3d.M2M || cfg.PME.ExchangeM2M) {
		mgr = m2m.NewManager(rt.Machine())
	}
	if cfg.PME != nil {
		eng, err := fft3d.New(rt, mgr, fft3d.Config{
			NX: cfg.PME.Grid[0], NY: cfg.PME.Grid[1], NZ: cfg.PME.Grid[2],
			Transport: cfg.PME.Transport,
			Filter:    s.influence(),
		})
		if err != nil {
			return nil, err
		}
		s.eng = eng
		eng.SetOnLocalComplete(func(pe *converse.PE) { s.coord(pe).fftDone(pe) })
		var q2 float64
		for _, c := range cfg.System.Charge {
			q2 += c * c
		}
		s.selfEnergy = -cfg.PME.Beta / math.SqrtPi * q2
	}

	s.declarePatches()
	s.declareCoordinators()
	if cfg.PME != nil && cfg.PME.ExchangeM2M {
		if err := s.declarePMEM2M(mgr); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Simulation) choosePatchGrid() (px, py, pz int) {
	g := s.cfg.PatchGrid
	out := [3]int{}
	for d := 0; d < 3; d++ {
		if g[d] > 0 {
			out[d] = g[d]
			continue
		}
		out[d] = int(s.cfg.System.Box.L[d] / s.cfg.Nonbonded.Cutoff)
		if out[d] < 1 {
			out[d] = 1
		}
	}
	return out[0], out[1], out[2]
}

// NumPatches returns the total patch count.
func (s *Simulation) NumPatches() int { return s.px * s.py * s.pz }

// Runtime exposes the underlying Charm++ runtime.
func (s *Simulation) Runtime() *charm.Runtime { return s.rt }

// influence returns the PME spectral filter D(m) (see internal/pme).
func (s *Simulation) influence() func(kx, ky, kz int, v complex128) complex128 {
	p := s.cfg.PME
	box := s.cfg.System.Box
	bx := pmeSplineModuli(p.Grid[0], p.Order)
	by := pmeSplineModuli(p.Grid[1], p.Order)
	bz := pmeSplineModuli(p.Grid[2], p.Order)
	beta := p.Beta
	return func(kx, ky, kz int, v complex128) complex128 {
		if kx == 0 && ky == 0 && kz == 0 {
			return 0
		}
		fx := float64(wrapFreq(kx, p.Grid[0])) / box.L[0]
		fy := float64(wrapFreq(ky, p.Grid[1])) / box.L[1]
		fz := float64(wrapFreq(kz, p.Grid[2])) / box.L[2]
		m2 := fx*fx + fy*fy + fz*fz
		d := math.Exp(-math.Pi*math.Pi*m2/(beta*beta)) / m2 * bx[kx] * by[ky] * bz[kz]
		return v * complex(d, 0)
	}
}

func wrapFreq(m, k int) int {
	if m > k/2 {
		return m - k
	}
	return m
}

// Run executes the configured number of steps and returns the report of
// the final force evaluation. It may be called once. A runtime shut down
// from outside (a watchdog) ends it early, with the report as far as the
// run got.
func (s *Simulation) Run() Report {
	s.rt.Run(func(pe *converse.PE) {
		// Prime: force evaluation 0 on every patch.
		if err := s.patchArr.Broadcast(pe, s.ePatchStep, &stepMsg{eval: 0, prime: true}, 16); err != nil {
			panic(fmt.Sprintf("mdsim: prime broadcast: %v", err))
		}
	})
	return s.report()
}

// stepMsg drives one force evaluation on a patch.
type stepMsg struct {
	eval  int
	prime bool
}

// driverPatchDone runs on PE 0 (serialized by its scheduler) counting patch
// completions and launching the next step.
func (s *Simulation) driverPatchDone(pe *converse.PE) {
	s.patchesDone++
	if s.patchesDone < s.NumPatches() {
		return
	}
	s.patchesDone = 0
	if s.evalCount > 0 {
		s.stepsDone++
	}
	if s.stepsDone >= s.cfg.Steps {
		s.rt.Shutdown()
		return
	}
	s.evalCount++
	// Fresh accumulation window for the next evaluation's energies.
	s.emu.Lock()
	s.energies = Report{}
	s.emu.Unlock()
	msg := &stepMsg{eval: s.evalCount}
	if err := s.patchArr.Broadcast(pe, s.ePatchStep, msg, 16); err != nil {
		panic(fmt.Sprintf("mdsim: step broadcast: %v", err))
	}
}

func (s *Simulation) isPMEEval(eval int) bool {
	return s.cfg.PME != nil && eval%s.cfg.PME.Every == 0
}

func (s *Simulation) report() Report {
	s.emu.Lock()
	r := s.energies
	if s.cfg.PME != nil {
		r.ElecEnergy += s.recipEnergy + s.selfEnergy
	}
	r.RecipEvals = s.recipEvals
	s.emu.Unlock()
	r.Steps = s.stepsDone
	r.ForceEvals = s.evalCount + 1
	r.Migrations = s.migrations.Load()
	r.Kinetic = 0
	for i := 0; i < s.NumPatches(); i++ {
		p := s.patchArr.Element(i).(*patch)
		for _, a := range p.atoms {
			r.Kinetic += 0.5 * s.cfg.System.Mass[a.id] * a.vel.Norm2()
		}
	}
	r.Potential = r.LJEnergy + r.ElecEnergy + r.BondEnergy + r.AngleEnergy + r.DihedralEnergy
	return r
}

// ForcesByAtom returns the last evaluation's total force per atom id.
// Valid after Run returns.
func (s *Simulation) ForcesByAtom() []md.Vec3 {
	out := make([]md.Vec3, s.cfg.System.N())
	for i := 0; i < s.NumPatches(); i++ {
		p := s.patchArr.Element(i).(*patch)
		for _, a := range p.atoms {
			out[a.id] = a.f
		}
	}
	return out
}

// AtomsPerPatch returns the current atom count of every patch (for tests
// and load statistics). Valid after Run returns.
func (s *Simulation) AtomsPerPatch() []int {
	out := make([]int, s.NumPatches())
	for i := range out {
		out[i] = len(s.patchArr.Element(i).(*patch).atoms)
	}
	return out
}

// ExtractSystem copies the final positions and velocities into a clone of
// the input system, for comparison against serial integration.
func (s *Simulation) ExtractSystem() *md.System {
	out := *s.cfg.System
	out.Pos = make([]md.Vec3, s.cfg.System.N())
	out.Vel = make([]md.Vec3, s.cfg.System.N())
	for i := 0; i < s.NumPatches(); i++ {
		p := s.patchArr.Element(i).(*patch)
		for _, a := range p.atoms {
			out.Pos[a.id] = a.pos
			out.Vel[a.id] = a.vel
		}
	}
	return &out
}

// pmeSplineModuli mirrors pme's spline moduli for the influence function.
func pmeSplineModuli(k, order int) []float64 { return pme.SplineModuli(k, order) }
