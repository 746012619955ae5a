package ft

import (
	"testing"
	"time"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/pami"
)

// A majority vote against a node that is actually alive (its heartbeats
// were starved, not its heart) must NOT confirm: the probe layer pings it,
// gets an echo, charges a link suspicion, and resets the heartbeat grace
// so the suspicion columns clear.
func TestProbeExoneratesAliveNode(t *testing.T) {
	conv := converse.Config{Nodes: 4, WorkersPerNode: 1, Mode: converse.ModeSMP}
	rt, err := charm.NewRuntime(conv)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	// Hour-long heartbeats: the manager's loops idle, the test drives
	// evaluate() and the PAMI contexts by hand.
	mgr := New(rt, Config{
		HeartbeatInterval: time.Hour,
		SuspectAfter:      10 * time.Millisecond,
		ProbeTimeout:      200 * time.Millisecond,
	})
	defer mgr.Stop()

	// Nodes 0, 1, 2 have heard nothing from node 3 for a second — a
	// unanimous vote — but node 3 is running and reachable.
	old := time.Now().Add(-time.Second).UnixNano()
	for o := 0; o < 3; o++ {
		mgr.lastHeard[o][3].Store(old)
	}
	if confirmed := mgr.evaluate(); len(confirmed) != 0 {
		t.Fatalf("evaluate confirmed %v before probing", confirmed)
	}
	if !mgr.probing[3].Load() {
		t.Fatal("majority vote did not launch a probe")
	}

	// Pump every context so the ping reaches node 3 and the echo returns.
	client := mgr.m.PAMIClient()
	deadline := time.Now().Add(5 * time.Second)
	for mgr.probing[3].Load() {
		for r := 0; r < 4; r++ {
			client.Node(r).Context(0).Advance()
		}
		if time.Now().After(deadline) {
			t.Fatal("probe never concluded")
		}
		time.Sleep(100 * time.Microsecond)
	}

	if mgr.probeDead[3].Load() {
		t.Fatal("probe declared an alive, reachable node dead")
	}
	st := mgr.Stats()
	if st.ProbesSent == 0 {
		t.Error("no probes were sent")
	}
	if st.LinkSuspects == 0 {
		t.Error("exoneration did not charge a link suspicion")
	}
	if st.Confirmations != 0 {
		t.Errorf("confirmations = %d, want 0", st.Confirmations)
	}
	// Grace was reset: the same tick logic now finds no silence.
	if confirmed := mgr.evaluate(); len(confirmed) != 0 {
		t.Fatalf("evaluate confirmed %v after exoneration", confirmed)
	}
	if mgr.confirmed[3].Load() {
		t.Fatal("alive node ended up confirmed dead")
	}
}

// A retry-streak report salts the starved channel's route every time and
// the reverse route every other time, so four reports walk all four
// combinations of the two routes' parities: a pair whose forward and
// reverse detours cross the bad link in turn still finds a round trip.
func TestRetryStreakSaltsBothDirectionsInTurn(t *testing.T) {
	conv := converse.Config{Nodes: 4, WorkersPerNode: 1, Mode: converse.ModeSMP}
	rt, err := charm.NewRuntime(conv)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	mgr := New(rt, Config{HeartbeatInterval: time.Hour, SuspectAfter: time.Hour})
	defer mgr.Stop()
	tor := mgr.m.Torus()
	seen := map[[2]uint32]bool{}
	for k := 1; k <= 4; k++ {
		mgr.onRetryStreak(0, 3, k*pami.RetryStreakThreshold)
		seen[[2]uint32{tor.PathSalt(0, 3) % 2, tor.PathSalt(3, 0) % 2}] = true
	}
	if fwd, rev := tor.PathSalt(0, 3), tor.PathSalt(3, 0); fwd != 4 || rev != 2 {
		t.Fatalf("four reports salted the forward route %d times and the reverse %d, want 4 and 2", fwd, rev)
	}
	if len(seen) != 4 {
		t.Fatalf("route parities visited %v, want all four combinations", seen)
	}
}
