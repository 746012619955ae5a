package scenario

import (
	"testing"
	"time"

	"blueq/internal/lb"
)

// skewed is the two-heavy-elements-on-PE-0 workload with one LB barrier.
func skewed(nodes, workers int) ImbalanceConfig {
	return ImbalanceConfig{
		Nodes: nodes, Workers: workers, Elems: 8, Warmup: 5, Total: 12,
		Heavy:     func(idx, _ int) bool { return idx < 2 },
		HeavyCost: 3 * time.Millisecond,
		LB:        lb.Config{Strategy: lb.Greedy{}},
	}
}

// Without ft the barrier balances and resumes at once; every element still
// executes each iteration exactly once across the migrations.
func TestImbalanceBalancesWithoutFT(t *testing.T) {
	res, err := Imbalance(skewed(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 || res.Phase <= 0 {
		t.Errorf("moves %d, measured phase %v; want a balanced, timed second phase", res.Moves, res.Phase)
	}
	if err := SameBits(Exact(8, 12), res); err != nil {
		t.Error(err)
	}
}

// A checkpoint taken after migrations settle protects the migrated layout,
// and a PE killed right after the LB pass issues its commands — blobs on
// the wire — recovers to exactly one live copy of every element.
func TestImbalanceKillMidMigration(t *testing.T) {
	cfg := skewed(4, 1)
	cfg.Transport, cfg.FT = "faulty:seed=3", true
	ref, err := Reference(Imbalance(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Checkpoints < 2 {
		t.Fatalf("reference run committed %d checkpoints, want >= 2 (initial + post-balance)", ref.Stats.Checkpoints)
	}
	if ref.Moves == 0 {
		t.Fatal("reference run migrated nothing")
	}
	if err := SameBits(Exact(8, 12), ref); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	cfg.Faults = Faults{Kill: []int{3}}
	got, err := Imbalance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Recoveries != 1 {
		t.Fatalf("ft/recoveries = %d, want 1 (stats %+v)", got.Stats.Recoveries, got.Stats)
	}
	if got.Recover <= 0 {
		t.Error("no restart was timed")
	}
	if err := SameBits(ref, got); err != nil {
		t.Errorf("across the kill: %v", err)
	}
}
