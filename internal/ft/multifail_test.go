package ft

import (
	"testing"
	"time"

	"blueq/internal/charm"
	"blueq/internal/converse"
)

// TestDetectorDoubleSuspicion pins the two-failure soundness rules of the
// majority vote, poking the last-heard matrix directly:
//
//   - Two wedged nodes (dead receive paths: they suspect everyone) must
//     not combine into a majority against a healthy node. The old
//     single-sweep detector counted their votes and confirmed node 0 here.
//   - Both wedged nodes must be confirmed in the same tick — confirming
//     the first must not clear or skew the tally against the second.
//   - A node never votes on its own failure (observer == target is
//     skipped), so a suspect's own silence cannot defend it.
func TestDetectorDoubleSuspicion(t *testing.T) {
	conv := converse.Config{Nodes: 4, WorkersPerNode: 1, Mode: converse.ModeSMP}
	rt, err := charm.NewRuntime(conv)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	// Hour-long interval: the manager's own loops stay idle, the test
	// drives evaluate() by hand.
	mgr := New(rt, Config{HeartbeatInterval: time.Hour, SuspectAfter: 10 * time.Millisecond})

	now := time.Now().UnixNano()
	old := now - time.Second.Nanoseconds()
	fresh := func(o, tg int) { mgr.lastHeard[o][tg].Store(now) }
	silent := func(o, tg int) { mgr.lastHeard[o][tg].Store(old) }

	// Nodes 2 and 3 are wedged: their receive paths hear nobody, so their
	// views suspect every peer. Healthy nodes 0 and 1 hear each other but
	// not 2 or 3.
	for tg := 0; tg < 4; tg++ {
		if tg != 2 {
			silent(2, tg)
		}
		if tg != 3 {
			silent(3, tg)
		}
	}
	fresh(0, 1)
	fresh(1, 0)
	silent(0, 2)
	silent(0, 3)
	silent(1, 2)
	silent(1, 3)

	// This test pins the vote rules, not link/node disambiguation: the
	// machine's nodes 2 and 3 are actually running, so a live probe would
	// (correctly) exonerate them. Pre-seed the probe verdicts as "gone" so
	// the majority tally is what decides.
	mgr.probeDead[2].Store(true)
	mgr.probeDead[3].Store(true)

	confirmed := mgr.evaluate()
	want := map[int]bool{2: true, 3: true}
	if len(confirmed) != 2 || !want[confirmed[0]] || !want[confirmed[1]] {
		t.Fatalf("evaluate confirmed %v, want exactly nodes 2 and 3 in one tick", confirmed)
	}
	if mgr.confirmed[0].Load() || mgr.confirmed[1].Load() {
		t.Fatalf("healthy node confirmed dead on the wedged pair's votes")
	}
	// A second tick with the same matrix must be stable: nothing new.
	if again := mgr.evaluate(); len(again) != 0 {
		t.Fatalf("second evaluate re-confirmed %v", again)
	}
	mgr.Stop()
}
