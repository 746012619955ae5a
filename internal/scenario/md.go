package scenario

import (
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/converse"
	"blueq/internal/flowctl"
	"blueq/internal/md"
	"blueq/internal/mdsim"
	"blueq/internal/transport"
)

// MDConfig describes one short mini-NAMD run on a two-node, two-worker SMP
// machine: a seeded 40-molecule water box under a cutoff force field (no
// PME), integrated by velocity Verlet for three steps.
type MDConfig struct {
	Seed        int64  // water-box seed
	Transport   string // transport spec; "" is the default in-process network
	FlowControl *flowctl.Config
	Aggregation *aggregate.Config
	Slow        time.Duration // PE 1's delay per execution (a slowed consumer)
}

// MD runs the system and returns every atom's final position in Atoms.
// Patches fold neighbour forces in arrival order, but over three 2e-4
// steps a last-bit force difference stays far below a position's last bit
// (shuffling every patch's neighbour cache changes no position), so a run
// that delivered every exchange exactly once ends bitwise identical
// (SameBits) to a fault-free in-process run of the same system. A lost
// exchange wedges the run; a duplicated one counts a neighbour twice. The
// energy Report is not compared: its reductions fold in arrival order and
// keep the last-bit differences.
func MD(cfg MDConfig) (Result, error) {
	tr, err := transport.New(cfg.Transport, 2, 2)
	if err != nil {
		return Result{}, err
	}
	sim, err := mdsim.New(mdsim.Config{
		System:    md.WaterBox(md.WaterBoxConfig{Molecules: 40, Seed: cfg.Seed}),
		Nonbonded: md.NonbondedParams{Cutoff: 4, SwitchDist: 3.2},
		DT:        2e-4, Steps: 3,
		Runtime: converse.Config{
			Nodes: 2, WorkersPerNode: 2, Mode: converse.ModeSMP, Transport: tr,
			FlowControl: cfg.FlowControl, Aggregation: cfg.Aggregation,
		},
	})
	if err != nil {
		tr.Close()
		return Result{}, err
	}
	h := &harness{rt: sim.Runtime(), tr: tr}
	h.rt.Machine().PE(1).SetInvokeDelay(cfg.Slow)
	res, err := h.run(0, func() { sim.Run() })
	res.Atoms = sim.ExtractSystem().Pos
	return res, err
}
