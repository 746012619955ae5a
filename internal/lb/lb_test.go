package lb

import (
	"testing"
	"time"

	"blueq/internal/charm"
)

// The meter's EWMA folds with alpha = 1/8, the window total accumulates
// raw samples, and Reset clears only the window — smoothing history
// survives, exactly like Charm++'s LB database refresh.
func TestMeterEWMAAndWindow(t *testing.T) {
	m := NewMeter(3, nil)
	m.RecordLoad(nil, 0, 800)
	if got := m.Load(0); got != 800 {
		t.Fatalf("first sample Load = %d, want 800 (stored directly)", got)
	}
	m.RecordLoad(nil, 0, 1600)
	if got := m.Load(0); got != 900 {
		t.Fatalf("Load after fold = %d, want 900 (800 + (1600-800)/8)", got)
	}
	if got := m.WindowTotal(0); got != 2400 {
		t.Fatalf("WindowTotal = %d, want 2400", got)
	}
	snap := m.Snapshot(nil)
	if len(snap) != 3 || snap[0] != 2400 || snap[1] != 0 || snap[2] != 0 {
		t.Fatalf("Snapshot = %v, want [2400 0 0]", snap)
	}
	m.Reset()
	if got := m.WindowTotal(0); got != 0 {
		t.Fatalf("WindowTotal after Reset = %d, want 0", got)
	}
	if got := m.Load(0); got != 900 {
		t.Fatalf("Load after Reset = %d, want 900 (EWMA keeps history)", got)
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	var c Config
	c.normalize()
	if c.Strategy == nil || c.Strategy.Name() != "greedy" {
		t.Errorf("default strategy = %v, want greedy", c.Strategy)
	}
	if c.Period != 2*time.Millisecond {
		t.Errorf("default Period = %v, want 2ms", c.Period)
	}
}

// The centralized strategies are thin, deterministic adapters over
// charm's placement algorithms — same inputs, same plan, every time.
func TestStrategiesDelegateToCharmPlacements(t *testing.T) {
	loads := []float64{10, 1, 1, 1, 9, 2}
	home := []int32{0, 0, 0, 1, 1, 1}

	wantG := charm.GreedyPlacement(loads, 2)
	wantR := charm.RefinePlacement(loads, home, 2)
	for run := 0; run < 5; run++ {
		g := Greedy{}.Plan(loads, home, 2)
		r := Refine{}.Plan(loads, home, 2)
		for i := range loads {
			if g[i] != wantG[i] {
				t.Fatalf("run %d: Greedy plan[%d] = %d, want %d", run, i, g[i], wantG[i])
			}
			if r[i] != wantR[i] {
				t.Fatalf("run %d: Refine plan[%d] = %d, want %d", run, i, r[i], wantR[i])
			}
		}
	}
}
