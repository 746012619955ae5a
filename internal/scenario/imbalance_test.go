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

// The migration chaos rows: a 12-element array whose heavy block rotates
// around the initial placement every phase, so each barrier's GreedyLB
// pass re-creates real packed-blob migrations, with a checkpoint of the
// migrated layout between phases, flow control armed, over each hostile
// wire. PEs 1 and 3 fail-stop 150 ms apart starting right after the first
// pass issues its commands, so deaths land while blobs are on the wire.
// Element state is a pure function of (index, iterations): Exact catches
// any delivery lost or duplicated across migrations, forwarding, parking
// or recovery replay.
func TestImbalanceRotating(t *testing.T) {
	const (
		nodes, elems = 4, 12
		perPhase     = 6
		phases       = 8
	)
	for _, r := range chaosRows(hostile...) {
		t.Run(r.name, func(t *testing.T) {
			replayHint(t, r.seed)
			got, err := Imbalance(ImbalanceConfig{
				Nodes: nodes, Workers: 1, Elems: elems,
				Warmup: perPhase, Every: perPhase, Total: phases * perPhase,
				Heavy:     func(idx, phase int) bool { return idx/3 == phase%nodes },
				HeavyCost: 2 * time.Millisecond,
				Transport: r.spec, FlowControl: slowFC(), Aggregation: r.aggregation(),
				LB: lb.Config{Strategy: lb.Greedy{}}, FT: true,
				Faults: Faults{Kill: []int{1, 3}, Spread: 150 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := SameBits(Exact(elems, phases*perPhase), got); err != nil {
				t.Error(err)
			}
			if err := got.Bounded(); err != nil {
				t.Error(err)
			}
			if got.Moves == 0 {
				t.Error("the rotating imbalance never triggered a migration")
			}
			if got.Stats.Recoveries < 1 {
				t.Errorf("kill schedule ran but no recovery happened: %+v", got.Stats)
			}
		})
	}
}
