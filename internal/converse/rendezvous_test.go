package converse

import (
	"sync/atomic"
	"testing"
	"time"
)

// Large inter-node []byte payloads take the rendezvous path: header,
// RDMA pull, ack — and the receiver gets its own copy of the data.
func TestRendezvousByteSlice(t *testing.T) {
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var ok atomic.Bool
	var sawCopy atomic.Bool
	var hRecv, hDone int
	m := runMachine(t, Config{Nodes: 2, WorkersPerNode: 1, Mode: ModeSMP},
		func(m *Machine) {
			hRecv = m.RegisterHandler(func(pe *PE, msg *Message) {
				b := msg.Payload.([]byte)
				ok.Store(len(b) == len(payload) && b[12345] == payload[12345])
				sawCopy.Store(&b[0] != &payload[0])
				// Reply to the sender; by the time the sender's scheduler
				// runs this reply it has already drained the (earlier) ack
				// packet from the same reception FIFO.
				_ = pe.Send(msg.SrcPE, &Message{Handler: hDone, Bytes: 8})
			})
			hDone = m.RegisterHandler(func(pe *PE, msg *Message) {
				pe.Machine().Shutdown()
			})
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				if err := pe.Send(1, &Message{Handler: hRecv, Bytes: len(payload), Payload: payload}); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		})
	if !ok.Load() {
		t.Fatal("rendezvous payload corrupted")
	}
	if !sawCopy.Load() {
		t.Fatal("rendezvous did not pull a copy (no RDMA read happened)")
	}
	st := m.RendezvousStats()
	if st.Started.Load() != 1 || st.Pulled.Load() != 1 {
		t.Fatalf("stats: started=%d pulled=%d", st.Started.Load(), st.Pulled.Load())
	}
	// The ack precedes the done-reply in the sender's reception FIFO.
	deadline := time.Now().Add(2 * time.Second)
	for st.Completed.Load() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st.Completed.Load() != 1 {
		t.Fatalf("ack never completed: %d", st.Completed.Load())
	}
}

// Non-byte payloads above the threshold still go through the protocol
// (reference semantics, no copy).
func TestRendezvousGenericPayload(t *testing.T) {
	data := make([]complex128, 8192) // 128 KB modelled
	data[100] = 3 + 4i
	var ok atomic.Bool
	var h int
	m := runMachine(t, Config{Nodes: 2, WorkersPerNode: 2, Mode: ModeSMPComm, CommThreads: 1},
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				v := msg.Payload.([]complex128)
				ok.Store(v[100] == 3+4i)
				pe.Machine().Shutdown()
			})
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				if err := pe.Send(pe.NumPEs()-1, &Message{Handler: h, Bytes: 16 * len(data), Payload: data}); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		})
	if !ok.Load() {
		t.Fatal("generic rendezvous payload lost")
	}
	if m.RendezvousStats().Started.Load() != 1 {
		t.Fatal("generic large payload did not use rendezvous")
	}
}

// Intra-node messages never use rendezvous regardless of size: they are
// pointer exchanges.
func TestRendezvousNotUsedIntraNode(t *testing.T) {
	var h int
	m := runMachine(t, Config{Nodes: 1, WorkersPerNode: 2, Mode: ModeSMP},
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) { pe.Machine().Shutdown() })
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				_ = pe.Send(1, &Message{Handler: h, Bytes: 1 << 20, Payload: make([]byte, 1<<20)})
			}
		})
	if m.RendezvousStats().Started.Load() != 0 {
		t.Fatal("intra-node message used rendezvous")
	}
}

// Small inter-node messages stay on the eager path.
func TestRendezvousThresholdRespected(t *testing.T) {
	var h int
	m := runMachine(t, Config{Nodes: 2, WorkersPerNode: 1, Mode: ModeSMP},
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) { pe.Machine().Shutdown() })
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				_ = pe.Send(1, &Message{Handler: h, Bytes: RendezvousThreshold, Payload: make([]byte, RendezvousThreshold)})
			}
		})
	if m.RendezvousStats().Started.Load() != 0 {
		t.Fatal("message at the threshold used rendezvous")
	}
}

// Many concurrent rendezvous transfers complete exactly once each.
func TestRendezvousConcurrent(t *testing.T) {
	const msgs = 50
	var count atomic.Int64
	var h int
	m := runMachine(t, Config{Nodes: 4, WorkersPerNode: 2, Mode: ModeSMP},
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				b := msg.Payload.([]byte)
				if b[0] != 0xAB {
					t.Errorf("corrupted payload")
				}
				if count.Add(1) == msgs {
					pe.Machine().Shutdown()
				}
			})
		},
		func(pe *PE) {
			if pe.Id() != 0 {
				return
			}
			for i := 0; i < msgs; i++ {
				b := make([]byte, 32*1024)
				b[0] = 0xAB
				dst := 1 + i%(pe.NumPEs()-1)
				if err := pe.Send(dst, &Message{Handler: h, Bytes: len(b), Payload: b}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		})
	// Sends to PEs on node 0 (same node as sender) are pointer exchanges;
	// only off-node sends rendezvous.
	if st := m.RendezvousStats().Started.Load(); st == 0 || st > msgs {
		t.Fatalf("rendezvous count %d", st)
	}
	if count.Load() != msgs {
		t.Fatalf("delivered %d/%d", count.Load(), msgs)
	}
}
