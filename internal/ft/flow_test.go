package ft

import (
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/flowctl"
)

// A node dies while senders are parked on its exhausted credit window.
// Failure handling must release those senders immediately — via
// Controller.DropPeer on the kill path — rather than leaving them to wait
// out MaxBlock, and the detector must still confirm the death even though
// the data plane toward the victim was saturated (heartbeats go straight
// through PAMI and hold no credit, so flow control cannot starve them).
func TestKillWhileThrottledUnblocksParkedSenders(t *testing.T) {
	const (
		nodes    = 3
		msgs     = 200
		maxBlock = 60 * time.Second // far beyond the test budget: unblocking must come from DropPeer
	)
	conv := converse.Config{
		Nodes:          nodes,
		WorkersPerNode: 1,
		Mode:           converse.ModeSMP,
		FlowControl: &flowctl.Config{
			Window:   2,
			MaxBlock: maxBlock,
		},
	}
	rt, err := charm.NewRuntime(conv)
	if err != nil {
		t.Fatal(err)
	}
	m := rt.Machine()
	mgr := New(rt, tightCfg())
	fc := m.FlowController()

	// The victim consumes far slower than the flood produces, so the
	// two-credit window toward it exhausts and PE 0 parks.
	m.PE(1).SetInvokeDelay(2 * time.Millisecond)
	sink := m.RegisterHandler(func(pe *converse.PE, msg *converse.Message) {})

	var sent atomic.Int64
	floodDone := make(chan struct{})
	go func() {
		// Kill the victim only once backpressure has pinned the sender,
		// then wait for the survivors to confirm the death.
		for fc.BlockedSenders() == 0 {
			if mgr.Stats().Confirmations > 0 {
				t.Error("victim confirmed dead before it was killed")
				rt.Shutdown()
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		m.KillNode(1)
		deadline := time.Now().Add(20 * time.Second)
		for mgr.Stats().Confirmations == 0 {
			if time.Now().After(deadline) {
				t.Error("victim death never confirmed")
				rt.Shutdown()
				return
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case <-floodDone:
		case <-time.After(20 * time.Second):
			t.Errorf("parked sender never released: %d/%d sends completed", sent.Load(), msgs)
		}
		rt.Shutdown()
	}()

	start := time.Now()
	rt.Run(func(pe *converse.PE) {
		if pe.Id() != 0 {
			return
		}
		for i := 0; i < msgs; i++ {
			// Sends racing the kill may fail; only a wedge is a bug.
			_ = pe.Send(1, &converse.Message{Handler: sink, Bytes: 8, Payload: i})
			sent.Add(1)
		}
		close(floodDone)
	})
	elapsed := time.Since(start)

	if got := sent.Load(); got != msgs {
		t.Fatalf("flood completed %d/%d sends", got, msgs)
	}
	if fc.BlockedTotal() == 0 {
		t.Fatal("sender never parked — the kill was not exercised under throttle")
	}
	if fc.BlockedSenders() != 0 {
		t.Fatalf("%d senders still parked after recovery", fc.BlockedSenders())
	}
	stats := mgr.Stats()
	if stats.Confirmations == 0 {
		t.Fatalf("no confirmed failure recorded: %+v", stats)
	}
	// The whole run — park, kill, detect, release, drain — must finish in
	// a fraction of MaxBlock, proving release came from DropPeer and not
	// from the overdraft timer.
	if elapsed >= maxBlock/2 {
		t.Fatalf("run took %v, senders apparently waited out MaxBlock (%v)", elapsed, maxBlock)
	}
}

// TestKillWhileThrottledDropsPooledEnvelopes combines the envelope pool
// with the throttled-kill path: the victim dies while (a) a survivor is
// parked on its exhausted credit window and (b) envelopes the victim's
// pool owns are still in flight toward a slow survivor. The kill fires
// flowctl.DropPeer, and the victim's scheduler runs EnvPool.DropOwner as
// it exits; the parked sender must release, and every late free of a victim-owned
// envelope must fall through to the GC (DeadDrops) instead of wedging or
// accumulating in a pool nobody will drain. Run under -race in CI: the
// quarantine racing remote frees is the point.
func TestKillWhileThrottledDropsPooledEnvelopes(t *testing.T) {
	const (
		nodes    = 3
		flood    = 200 // PE 0 → victim, parks the sender
		burst    = 60  // victim → PE 2, pooled envelopes owned by the victim
		maxBlock = 60 * time.Second
	)
	conv := converse.Config{
		Nodes:          nodes,
		WorkersPerNode: 1,
		Mode:           converse.ModeSMP,
		FlowControl: &flowctl.Config{
			Window:   2,
			MaxBlock: maxBlock,
		},
	}
	rt, err := charm.NewRuntime(conv)
	if err != nil {
		t.Fatal(err)
	}
	m := rt.Machine()
	mgr := New(rt, tightCfg())
	fc := m.FlowController()
	pool := m.EnvelopePool()
	if pool == nil {
		t.Fatal("envelope pool disabled; this test needs pooled envelopes")
	}

	m.PE(1).SetInvokeDelay(2 * time.Millisecond) // slow victim: PE 0 parks on it
	m.PE(2).SetInvokeDelay(time.Millisecond)     // slow sink: victim-owned envelopes linger

	sink := m.RegisterHandler(func(pe *converse.PE, msg *converse.Message) {})
	var victimSent atomic.Int64
	// Runs on the victim's scheduler goroutine, so pe.NewMessage draws
	// from the victim's single-consumer pool.
	burstH := m.RegisterHandler(func(pe *converse.PE, msg *converse.Message) {
		for i := 0; i < burst; i++ {
			out := pe.NewMessage()
			out.Handler = sink
			out.Bytes = 8
			// Sends racing (or following) the kill may fail; the envelope
			// reference is consumed on every path, so no leak either way.
			_ = pe.Send(2, out)
			victimSent.Add(1)
		}
	})

	var sent atomic.Int64
	floodDone := make(chan struct{})
	go func() {
		// Kill only once the sender is parked AND victim-owned envelopes
		// are in flight, so both teardown paths have live traffic to race.
		for fc.BlockedSenders() == 0 || victimSent.Load() < 4 {
			time.Sleep(100 * time.Microsecond)
		}
		m.KillNode(1)
		deadline := time.Now().Add(20 * time.Second)
		for mgr.Stats().Confirmations == 0 {
			if time.Now().After(deadline) {
				t.Error("victim death never confirmed")
				rt.Shutdown()
				return
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case <-floodDone:
		case <-time.After(20 * time.Second):
			t.Errorf("parked sender never released: %d/%d sends completed", sent.Load(), flood)
		}
		rt.Shutdown()
	}()

	rt.Run(func(pe *converse.PE) {
		if err := pe.Send(1, &converse.Message{Handler: burstH, Bytes: 8}); err != nil {
			t.Errorf("burst trigger: %v", err)
		}
		for i := 0; i < flood; i++ {
			_ = pe.Send(1, &converse.Message{Handler: sink, Bytes: 8, Payload: i})
			sent.Add(1)
		}
		close(floodDone)
	})

	if got := sent.Load(); got != flood {
		t.Fatalf("flood completed %d/%d sends", got, flood)
	}
	if fc.BlockedTotal() == 0 {
		t.Fatal("sender never parked — the kill was not exercised under throttle")
	}
	if fc.BlockedSenders() != 0 {
		t.Fatalf("%d senders still parked after the kill", fc.BlockedSenders())
	}
	stats := pool.Stats()
	if stats.DeadDrops.Load() == 0 {
		t.Errorf("no envelope free hit the dead-owner quarantine (victim sent %d)", victimSent.Load())
	}
	// A free racing DropOwner may legally park one envelope in the
	// drained queue; anything more means the quarantine leaked.
	if n := pool.Len(1); n > 1 {
		t.Errorf("victim pool still holds %d envelopes after DropOwner", n)
	}
}
