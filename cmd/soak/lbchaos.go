package main

import (
	"fmt"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/charm"
	"blueq/internal/flowctl"
	"blueq/internal/ft"
	"blueq/internal/lb"
	"blueq/internal/scenario"
)

// The -lb cell: continuous migrations under a hostile transport. A
// 12-element array runs phases of work where the heavy cost rotates
// around the initial placement blocks, so every phase re-creates an
// imbalance and the barrier's GreedyLB pass keeps real packed-blob
// migrations flowing for the whole budget — with a checkpoint of the
// migrated layout between every pair of phases (scenario.Imbalance). A
// -kills schedule fail-stops nodes immediately after an LB pass issues its
// commands, landing the deaths while blobs are on the wire.
//
// Element state is a pure function of (index, iterations), so the final
// exactly-once check catches any delivery lost or duplicated across
// migrations, forwarding, parking, or recovery replay; the residency
// sampler holds the usual bounded-memory property while blobs and data
// share the flow-controlled path.

// runLBSoak drives the rotating-imbalance workload for a phase count
// sized from the cell budget.
func runLBSoak(spec string, d time.Duration, fcc flowctl.Config, agc *aggregate.Config, victims []int, spread time.Duration) error {
	const (
		nodes         = 4
		nelems        = 12
		itersPerPhase = 6
	)
	// Worst-case phase cost: one PE holding every heavy element. The
	// count is fixed up front so the exactly-once ledger has a single
	// expected answer regardless of how recoveries stretch the wall clock.
	phases := int(d / (50 * time.Millisecond))
	if phases < 4 {
		phases = 4
	}
	if phases > 60 {
		phases = 60
	}

	var watch func() scenario.Residency
	res, err := scenario.Imbalance(scenario.ImbalanceConfig{
		Nodes: nodes, Workers: 1, Elems: nelems,
		Warmup: itersPerPhase, Every: itersPerPhase, Total: phases * itersPerPhase,
		// The heavy block rotates each phase, re-imbalancing whatever
		// placement the previous pass settled on.
		Heavy:     func(idx, phase int) bool { return idx/3 == phase%nodes },
		HeavyCost: 2 * time.Millisecond,
		Transport: spec, FlowControl: &fcc, Aggregation: agc,
		LB: lb.Config{Strategy: lb.Greedy{}}, FT: true,
		Timeout: d + 120*time.Second,
		Faults: scenario.Faults{
			Kill: victims, Spread: spread,
			Pre: func(rt *charm.Runtime, _ *ft.Manager) {
				m := rt.Machine()
				watch = scenario.WatchResidency(m, m.NumPEs())
			},
		},
	})
	if watch == nil {
		return err // the machine never got built
	}
	mem := watch()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "lb    over %-45s %d phases, %d migrations, %d recoveries, peak resident %d/bound %d, reorder %d/cap %d in %5.1fs\n",
		spec+":", phases, res.Moves, res.Stats.Recoveries, mem.PeakResident, mem.ResidentBound,
		mem.PeakReorder, mem.ReorderCap, res.Elapsed.Seconds())

	if err := scenario.SameBits(scenario.Exact(nelems, phases*itersPerPhase), res); err != nil {
		return fmt.Errorf("exactly-once violated: %w", err)
	}
	if res.Moves == 0 {
		return fmt.Errorf("no forward progress: the rotating imbalance never triggered a migration")
	}
	if len(victims) > 0 && res.Stats.Recoveries < 1 {
		return fmt.Errorf("kill schedule ran but no recovery happened: %+v", res.Stats)
	}
	return mem.Bounded()
}
