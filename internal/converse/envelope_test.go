package converse

import (
	"sync/atomic"
	"testing"
)

// TestPooledPingPongRecycles drives an intra-node ping-pong on pooled
// envelopes and checks the pool saw the traffic: steady-state Gets are
// hits, and since every envelope is allocated on one PE and released
// after execution on the other, the frees are the paper's lockless
// remote frees.
func TestPooledPingPongRecycles(t *testing.T) {
	const rounds = 500
	var count atomic.Int64
	var h int
	m := runMachine(t, Config{Nodes: 1, WorkersPerNode: 2, Mode: ModeSMP},
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				if !msg.Pooled() {
					t.Error("handler saw an unpooled envelope on the pooled path")
				}
				if count.Add(1) >= rounds {
					pe.Machine().Shutdown()
					return
				}
				r := pe.NewMessage()
				r.Handler = h
				r.Bytes = 32
				if err := pe.Send(1-pe.Id(), r); err != nil {
					t.Errorf("send: %v", err)
					pe.Machine().Shutdown()
				}
			})
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				first := pe.NewMessage()
				first.Handler = h
				first.Bytes = 32
				if err := pe.Send(1, first); err != nil {
					t.Errorf("initial send: %v", err)
				}
			}
		})
	st := m.EnvelopePool().Stats()
	if st.Hits.Load() == 0 {
		t.Fatalf("no pool hits over %d rounds: stats hits=%d misses=%d", rounds, st.Hits.Load(), st.Misses.Load())
	}
	if st.RemoteFrees.Load() == 0 {
		t.Fatalf("no remote frees — envelopes executed on the peer PE never recycled to their owner (local=%d heap=%d)",
			st.LocalFrees.Load(), st.HeapFrees.Load())
	}
}

// TestDoubleReleasePanics pins the strict lifecycle contract: releasing a
// pooled envelope more times than it was retained panics rather than
// silently corrupting the next user's refcount.
func TestDoubleReleasePanics(t *testing.T) {
	m, err := NewMachine(Config{Nodes: 1, WorkersPerNode: 1, Mode: ModeSMP})
	if err != nil {
		t.Fatal(err)
	}
	msg := m.PE(0).NewMessage()
	msg.Release()
	defer func() {
		if recover() == nil {
			t.Error("second Release did not panic")
		}
	}()
	msg.Release()
}

// TestRetainAcrossExecute pins the handler-side escape hatch: a handler
// that Retains an incoming envelope keeps it (fields intact) past the
// scheduler's release-after-execute; its own later Release is what
// scrubs and recycles.
func TestRetainAcrossExecute(t *testing.T) {
	payload := &[64]byte{7}
	var kept atomic.Pointer[Message]
	var h int
	m := runMachine(t, Config{Nodes: 1, WorkersPerNode: 2, Mode: ModeSMP},
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				kept.Store(msg.Retain())
				pe.Machine().Shutdown()
			})
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				msg := pe.NewMessage()
				msg.Handler = h
				msg.Bytes = 64
				msg.Payload = payload
				if err := pe.Send(1, msg); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		})
	msg := kept.Load()
	if msg == nil {
		t.Fatal("handler never ran")
	}
	// The scheduler's own reference is gone, but ours keeps the envelope
	// whole: the payload pointer must still be there.
	if msg.Payload != any(payload) {
		t.Fatalf("retained envelope lost its payload: %v", msg.Payload)
	}
	if msg.Handler != h || msg.Bytes != 64 {
		t.Fatalf("retained envelope fields scrubbed early: handler=%d bytes=%d", msg.Handler, msg.Bytes)
	}
	frees := m.EnvelopePool().Stats().LocalFrees.Load() +
		m.EnvelopePool().Stats().RemoteFrees.Load() +
		m.EnvelopePool().Stats().HeapFrees.Load()
	msg.Release()
	after := m.EnvelopePool().Stats()
	if got := after.LocalFrees.Load() + after.RemoteFrees.Load() + after.HeapFrees.Load(); got != frees+1 {
		t.Fatalf("final Release did not recycle: frees %d -> %d", frees, got)
	}
	// The recycled envelope is scrubbed: no payload pinning user memory,
	// no stale bookkeeping.
	if msg.Payload != nil || msg.Handler != 0 || msg.seq != 0 || msg.enqNS != 0 || msg.viaNet {
		t.Fatalf("recycled envelope not scrubbed: %+v", msg)
	}
}

// TestUnpooledReleaseIsNoOp pins the other half of the lifecycle contract:
// an envelope built off the pool — Machine.NewMessage, or a plain literal —
// is not Pooled, and Retain/Release on it are no-ops (so legacy call sites
// cannot double-release their way into a panic).
func TestUnpooledReleaseIsNoOp(t *testing.T) {
	m, err := NewMachine(Config{Nodes: 1, WorkersPerNode: 1, Mode: ModeSMP})
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []*Message{m.NewMessage(), {}} {
		if msg.Pooled() {
			t.Fatal("an envelope built off the pool reports Pooled")
		}
		msg.Release()
		msg.Release() // must not panic
	}
}

// TestCopyFromSkipsBookkeeping is the regression test for the broadcast
// clone bug: CopyFrom must copy the user-visible envelope but NOT the
// internal seq / enqNS / viaNet / fromNode bookkeeping — a clone is a new
// envelope with its own enqueue time and FIFO ticket.
func TestCopyFromSkipsBookkeeping(t *testing.T) {
	src := &Message{
		Handler:    3,
		SrcPE:      5,
		Bytes:      128,
		Prio:       -2,
		Payload:    "p",
		BestEffort: true,
		NoAgg:      true,
		seq:        99,
		destLocal:  1,
		enqNS:      123456,
		viaNet:     true,
		fromNode:   7,
	}
	dst := &Message{}
	dst.CopyFrom(src)
	if dst.Handler != 3 || dst.SrcPE != 5 || dst.Bytes != 128 || dst.Prio != -2 ||
		dst.Payload != any("p") || !dst.BestEffort || !dst.NoAgg || dst.destLocal != 1 {
		t.Fatalf("user-visible fields not copied: %+v", dst)
	}
	if dst.seq != 0 || dst.enqNS != 0 || dst.viaNet || dst.fromNode != 0 {
		t.Fatalf("internal bookkeeping leaked into the clone: seq=%d enqNS=%d viaNet=%v fromNode=%d",
			dst.seq, dst.enqNS, dst.viaNet, dst.fromNode)
	}
}

// TestPostRunsOnPEScheduler: a goroutine on no scheduler posts work to a
// PE, which runs it on its own scheduler, where the work may send from the
// PE's pool.
func TestPostRunsOnPEScheduler(t *testing.T) {
	var ranOn atomic.Int64
	ranOn.Store(-1)
	var h int
	runMachine(t, Config{Nodes: 2, WorkersPerNode: 1, Mode: ModeSMP},
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				if !msg.Pooled() {
					t.Error("the posted work's send was not drawn from the PE's pool")
				}
				pe.Machine().Shutdown()
			})
		},
		func(pe *PE) {
			if pe.Id() != 0 {
				return
			}
			target := pe.Machine().PE(1)
			go target.Post(func(pe *PE) {
				ranOn.Store(int64(pe.Id()))
				msg := pe.NewMessage()
				msg.Handler = h
				if err := pe.Send(0, msg); err != nil {
					t.Errorf("send from posted work: %v", err)
				}
			})
		})
	if got := ranOn.Load(); got != 1 {
		t.Fatalf("posted work ran on PE %d, want 1", got)
	}
}
