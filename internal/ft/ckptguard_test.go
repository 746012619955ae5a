package ft

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/charm"
	"blueq/internal/converse"
)

// guardElem is a minimal checkpointable element.
type guardElem struct{ v uint64 }

func (g *guardElem) PackCheckpoint() []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], g.v)
	return b[:]
}

func (g *guardElem) UnpackCheckpoint(data []byte) { g.v = binary.LittleEndian.Uint64(data) }

// A checkpoint requested after a death is confirmed but before recovery
// re-homes the dead node's elements must be refused with ErrRecovering.
// The round would otherwise commit over the shrunken live set with the
// dead node's elements in no PE's batch — an epoch that silently lacks
// state, unrecoverable the moment anything rolls back to it. Regression
// test for exactly that: the LB soak hit the window between KillNode and
// the recovery pass with its phase-checkpoint cadence.
func TestCheckpointRefusedWhileDeathUnrecovered(t *testing.T) {
	const nodes = 2
	rt, err := charm.NewRuntime(converse.Config{Nodes: nodes, WorkersPerNode: 1, Mode: converse.ModeSMP})
	if err != nil {
		t.Fatal(err)
	}
	mgr := New(rt, Config{
		HeartbeatInterval: 2 * time.Millisecond,
		SuspectAfter:      50 * time.Millisecond,
		ProbeTimeout:      100 * time.Millisecond,
	})
	a := rt.NewArray("guard", 4, func(idx int) charm.Element { return &guardElem{v: uint64(idx + 10)} })
	mgr.Protect(a)

	var ckptErr atomic.Value
	var recoveringSeen, recovered atomic.Bool
	mgr.SetAppState(
		func() []byte { return nil },
		func(pe *converse.PE, _ []byte) {
			recovered.Store(true)
			// Off the recovery goroutine: Shutdown joins the ft manager's
			// loops, and this hook runs on one of them.
			go rt.Shutdown()
		})

	watchdog := time.AfterFunc(30*time.Second, func() {
		t.Error("run wedged")
		rt.Shutdown()
	})
	defer watchdog.Stop()
	rt.Run(func(pe *converse.PE) {
		if err := mgr.Checkpoint(pe, func(pe *converse.PE) {
			rt.Machine().KillNode(1)
			// Node 1 is marked dead but its elements (idx 2, 3) are still
			// homed there: the guard must refuse before any round starts.
			if err := mgr.Checkpoint(pe, nil); err != nil {
				ckptErr.Store(err)
			}
			recoveringSeen.Store(mgr.Recovering())
		}); err != nil {
			t.Errorf("initial checkpoint: %v", err)
			rt.Shutdown()
		}
	})

	err, _ = ckptErr.Load().(error)
	if !errors.Is(err, ErrRecovering) {
		t.Fatalf("checkpoint after unrecovered death returned %v, want ErrRecovering", err)
	}
	if !recoveringSeen.Load() {
		t.Error("Recovering() = false with a confirmed-but-unrecovered death")
	}
	if !recovered.Load() {
		t.Fatal("recovery never restarted the application")
	}
	if got := mgr.Stats().Recoveries; got != 1 {
		t.Errorf("recoveries = %d, want 1", got)
	}
	for idx := 0; idx < a.Len(); idx++ {
		g := a.Element(idx).(*guardElem)
		if g.v != uint64(idx+10) {
			t.Errorf("element %d state %d, want %d", idx, g.v, idx+10)
		}
	}
}
