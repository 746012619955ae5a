package charm

import (
	"reflect"
	"testing"
)

// Edge cases of the two placement algorithms (internal/lb's Greedy and
// Refine strategies run them unchanged).

// blockHomes is the default block map's placement of n elements on npes.
func blockHomes(n, npes int) []int32 {
	home := make([]int32, n)
	for i := range home {
		home[i] = int32(blockMap(i, n, npes))
	}
	return home
}

// perPE folds per-element loads over a placement into the heaviest PE's
// load and the average.
func perPE(loads []float64, home []int32, npes int) (max, avg float64) {
	sums := make([]float64, npes)
	for i, h := range home {
		sums[h] += loads[i]
	}
	for _, s := range sums {
		avg += s
		if s > max {
			max = s
		}
	}
	return max, avg / float64(npes)
}

// moves counts elements whose home changed.
func moves(old, new []int32) int {
	n := 0
	for i := range old {
		if old[i] != new[i] {
			n++
		}
	}
	return n
}

func ramp(n int) []float64 {
	loads := make([]float64, n)
	for i := range loads {
		loads[i] = float64(i + 1)
	}
	return loads
}

// All-zero loads: nothing measured, so any placement is as good as any
// other; the algorithms must terminate with every element on a valid PE,
// without dividing by zero or looping.
func TestPlacementAllZeroLoads(t *testing.T) {
	loads := make([]float64, 8)
	for name, home := range map[string][]int32{
		"greedy": GreedyPlacement(loads, 4),
		"refine": RefinePlacement(loads, blockHomes(8, 4), 4),
	} {
		if len(home) != 8 {
			t.Fatalf("%s: placed %d of 8 elements", name, len(home))
		}
		for i, h := range home {
			if h < 0 || h >= 4 {
				t.Fatalf("%s: element %d placed on PE %d", name, i, h)
			}
		}
	}
	if got := RefinePlacement(loads, blockHomes(8, 4), 4); moves(blockHomes(8, 4), got) != 0 {
		t.Fatalf("refine moved elements with nothing measured: %v", got)
	}
}

// A single-PE machine has nowhere to move anything: zero migrations, all
// load on the one PE.
func TestPlacementSinglePE(t *testing.T) {
	loads, old := ramp(6), blockHomes(6, 1)
	for name, home := range map[string][]int32{
		"greedy": GreedyPlacement(loads, 1),
		"refine": RefinePlacement(loads, old, 1),
	} {
		if moves(old, home) != 0 {
			t.Fatalf("%s migrated elements on a single PE: %v", name, home)
		}
		if max, avg := perPE(loads, home, 1); max != 21 || avg != 21 {
			t.Fatalf("%s: single-PE loads max %v avg %v, want 21", name, max, avg)
		}
	}
}

// RefineLB on an already-balanced array is a no-op: every PE is within
// the 5% tolerance, so zero migrations.
func TestRefineWithinToleranceNoMigrations(t *testing.T) {
	loads := make([]float64, 16)
	for i := range loads {
		loads[i] = 1 // block map: 4 elements x 1.0 per PE, perfectly flat
	}
	old := blockHomes(16, 4)
	if n := moves(old, RefinePlacement(loads, old, 4)); n != 0 {
		t.Fatalf("refine migrated %d elements of a balanced array", n)
	}
}

// Skewed load: element i costs i+1 units and the block map puts the heavy
// tail on the last PE; greedy must bring the max within 1.25x of average.
func TestGreedyBalancesSkewedLoad(t *testing.T) {
	loads, old := ramp(16), blockHomes(16, 4)
	home := GreedyPlacement(loads, 4)
	if max, avg := perPE(loads, home, 4); max > avg*1.25 {
		t.Fatalf("greedy max load %v exceeds 1.25x avg %v", max, avg)
	}
	if moves(old, home) == 0 {
		t.Fatal("greedy made no migrations on skewed load")
	}
}

// Nearly balanced already — one hot element on PE 0: refine fixes it with
// a handful of moves, not an upheaval.
func TestRefineMovesLittle(t *testing.T) {
	loads := make([]float64, 16)
	for i := range loads {
		loads[i] = 1
	}
	loads[0] = 4
	old := blockHomes(16, 4)
	if n := moves(old, RefinePlacement(loads, old, 4)); n > 4 {
		t.Fatalf("refine migrated %d elements for one hot spot", n)
	}
}

// The placements are deterministic: the same loads produce bitwise the
// same map on every run — reproducibility the bitwise-identity
// experiments (E17/E19) build on.
func TestPlacementDeterministic(t *testing.T) {
	loads := make([]float64, 32)
	for i := range loads {
		loads[i] = float64((i*7919)%13) + 0.25
	}
	oldHome := make([]int32, 32)
	for i := range oldHome {
		oldHome[i] = int32(i % 4)
	}
	g0 := GreedyPlacement(loads, 4)
	r0 := RefinePlacement(loads, oldHome, 4)
	for run := 0; run < 10; run++ {
		if g := GreedyPlacement(loads, 4); !reflect.DeepEqual(g, g0) {
			t.Fatalf("greedy run %d differs: %v vs %v", run, g, g0)
		}
		if r := RefinePlacement(loads, oldHome, 4); !reflect.DeepEqual(r, r0) {
			t.Fatalf("refine run %d differs: %v vs %v", run, r, r0)
		}
	}
}
