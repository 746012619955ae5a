package ft

import (
	"testing"
	"time"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/fft3d"
)

// The FFT-under-faults recovery tests (kill each node, cascades, link
// faults, aggregation armed, the seeded chaos rows) live in
// internal/scenario, which owns the driver they share with cmd/experiments;
// this package keeps the tests that need the manager's internals.

// tight detector settings for fast, deterministic kill tests, stretched by
// raceScale so the race detector's slowdown cannot starve heartbeats or
// time out probes of alive nodes.
func tightCfg() Config {
	s := time.Duration(raceScale)
	return Config{
		HeartbeatInterval: s * time.Millisecond,
		SuspectAfter:      s * 12 * time.Millisecond,
		ProbeTimeout:      s * 20 * time.Millisecond,
	}
}

// TestShutdownMidCheckpoint drives Shutdown while a checkpoint round is in
// flight: the shutdown hook must stop the heartbeat and monitor goroutines
// (Stop returns only after they exit) and nothing may deadlock or leak
// timers — the same cancel-on-shutdown discipline as the reliability layer.
func TestShutdownMidCheckpoint(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		conv := converse.Config{Nodes: 4, WorkersPerNode: 1, Mode: converse.ModeSMP}
		rt, err := charm.NewRuntime(conv)
		if err != nil {
			t.Fatal(err)
		}
		mgr := New(rt, Config{HeartbeatInterval: time.Millisecond})
		eng, err := fft3d.New(rt, nil, fft3d.Config{NX: 8, NY: 8, NZ: 8, Transport: fft3d.P2P})
		if err != nil {
			t.Fatal(err)
		}
		mgr.Protect(eng.Array())
		rt.Run(func(pe *converse.PE) {
			// The commit continuation shuts the machine down, so teardown
			// races the tail of the ack wave on other PEs.
			if err := mgr.Checkpoint(pe, func(pe *converse.PE) { rt.Shutdown() }); err != nil {
				t.Errorf("checkpoint: %v", err)
				rt.Shutdown()
			}
		})
		mgr.Stop() // idempotent: Shutdown's hook already ran it
		if mgr.Stats().Checkpoints != 1 {
			t.Fatalf("trial %d: checkpoint did not commit before shutdown", trial)
		}
	}
}
