package converse

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Tree broadcast over many nodes: every PE gets exactly one copy, from any
// origin.
func TestTreeBroadcastCoverage(t *testing.T) {
	for _, origin := range []int{0, 5, 13} {
		origin := origin
		cfg := Config{Nodes: 7, WorkersPerNode: 2, Mode: ModeSMP}
		var got sync.Map
		var count atomic.Int64
		var h int
		runMachine(t, cfg,
			func(m *Machine) {
				total := int64(m.NumPEs())
				h = m.RegisterHandler(func(pe *PE, msg *Message) {
					if _, dup := got.LoadOrStore(pe.Id(), true); dup {
						t.Errorf("PE %d received broadcast twice (origin %d)", pe.Id(), origin)
					}
					if msg.SrcPE != origin {
						t.Errorf("SrcPE = %d, want %d", msg.SrcPE, origin)
					}
					if count.Add(1) == total {
						pe.Machine().Shutdown()
					}
				})
			},
			func(pe *PE) {
				if pe.Id() == origin {
					if err := pe.Broadcast(&Message{Handler: h, Bytes: 8}); err != nil {
						t.Errorf("broadcast: %v", err)
					}
				}
			})
		if count.Load() != 14 {
			t.Fatalf("origin %d: broadcast reached %d PEs, want 14", origin, count.Load())
		}
	}
}

// Large-payload broadcasts travel the tree's PAMI_Send path.
func TestTreeBroadcastLargePayload(t *testing.T) {
	payload := make([]byte, 4096)
	payload[999] = 42
	var count atomic.Int64
	var h int
	runMachine(t, Config{Nodes: 5, WorkersPerNode: 2, Mode: ModeSMPComm, CommThreads: 1},
		func(m *Machine) {
			total := int64(m.NumPEs())
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				if msg.Payload.([]byte)[999] != 42 {
					t.Error("payload corrupted in tree")
				}
				if count.Add(1) == total {
					pe.Machine().Shutdown()
				}
			})
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				_ = pe.Broadcast(&Message{Handler: h, Bytes: len(payload), Payload: payload})
			}
		})
	if count.Load() != 10 {
		t.Fatalf("reached %d PEs", count.Load())
	}
}

// A halted interior node does not cut its subtree off: its parent adopts
// the children, so every live PE still gets exactly one copy.
func TestTreeBroadcastRoutesAroundHaltedNode(t *testing.T) {
	// Six nodes at fanout 4: node 1 is the parent of node 5.
	cfg := Config{Nodes: 6, WorkersPerNode: 2, Mode: ModeSMP}
	var got sync.Map
	var count atomic.Int64
	var h int
	runMachine(t, cfg,
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				if pe.Node().rank == 1 {
					t.Errorf("halted node's PE %d ran the broadcast", pe.Id())
				}
				if _, dup := got.LoadOrStore(pe.Id(), true); dup {
					t.Errorf("PE %d received broadcast twice", pe.Id())
				}
				if count.Add(1) == 10 {
					pe.Machine().Shutdown()
				}
			})
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				m := pe.Machine()
				m.KillNode(1)
				<-m.NodeHalted(1)
				if err := pe.Broadcast(&Message{Handler: h, Bytes: 8}); err != nil {
					t.Errorf("broadcast: %v", err)
				}
			}
		})
	if count.Load() != 10 {
		t.Fatalf("broadcast reached %d live PEs, want 10", count.Load())
	}
}
