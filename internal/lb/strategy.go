package lb

import "blueq/internal/charm"

// Strategy plans a new element-to-PE map from measured loads. The two
// centralized Charm++ strategies reuse charm's placement algorithms; the
// diffusion mode is not a Strategy — it never sees global state, which is
// the point.
type Strategy interface {
	Name() string
	// Plan returns the new home for every element given its measured
	// load and current home. Implementations must be deterministic: the
	// bitwise-identity guarantees of E19 rest on it.
	Plan(loads []float64, home []int32, npes int) []int32
}

// Greedy is Charm++'s GreedyLB: heaviest element to least-loaded PE,
// ignoring current placement (maximum balance, maximum migration).
type Greedy struct{}

func (Greedy) Name() string { return "greedy" }

func (Greedy) Plan(loads []float64, _ []int32, npes int) []int32 {
	return charm.GreedyPlacement(loads, npes)
}

// Refine is Charm++'s RefineLB: move as few elements as possible off
// overloaded PEs until every PE is within tolerance.
type Refine struct{}

func (Refine) Name() string { return "refine" }

func (Refine) Plan(loads []float64, home []int32, npes int) []int32 {
	return charm.RefinePlacement(loads, home, npes)
}
