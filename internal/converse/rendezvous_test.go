package converse

import (
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/obs"
	"blueq/internal/transport"
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

// A transfer whose headers are all lost is abandoned after maxRzvRetries
// and counted, in RendezvousStats and in the obs counter sharded by
// destination — silent loss must be observable.
func TestRendezvousAbandonReported(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	abandon0 := mRzvAbandon.Value()

	const bytes = 64 * 1024
	tr, err := transport.New("faulty:seed=3,drop=1", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var h int
	m := runMachine(t, Config{
		Nodes: 2, WorkersPerNode: 1, Mode: ModeSMP,
		Transport:         tr,
		RendezvousTimeout: 200 * time.Microsecond,
	},
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				t.Error("payload delivered over a transport that drops everything")
			})
			go func() {
				deadline := time.Now().Add(20 * time.Second)
				// The obs counter moves after the stat, so both are set.
				for mRzvAbandon.Value() == abandon0 {
					if time.Now().After(deadline) {
						t.Error("transfer never abandoned")
						break
					}
					time.Sleep(time.Millisecond)
				}
				m.Shutdown()
			}()
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				_ = pe.Send(1, &Message{Handler: h, Bytes: bytes, Payload: make([]byte, bytes)})
			}
		})
	if n := m.RendezvousStats().Abandoned.Load(); n != 1 {
		t.Fatalf("Abandoned = %d, want 1", n)
	}
	if d := mRzvAbandon.Value() - abandon0; d != 1 {
		t.Fatalf("rzv_abandon_total delta = %d, want 1", d)
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

// The receiver's duplicate filter remembers a window, not a history: a
// late retransmission is a duplicate whether it falls inside the window or
// below its floor, and slack inside the window is still a first arrival.
func TestRzvWindowDedup(t *testing.T) {
	var w rzvWindow
	for seq := uint64(1); seq <= 3*rzvDedupWindow; seq += 2 {
		if w.dup(seq) {
			t.Fatalf("first arrival of %d reported as duplicate", seq)
		}
		if !w.dup(seq) {
			t.Fatalf("retransmission of %d not reported as duplicate", seq)
		}
	}
	if len(w.seen) != rzvDedupWindow {
		t.Fatalf("window holds %d entries, want %d", len(w.seen), rzvDedupWindow)
	}
	if !w.dup(1) {
		t.Fatal("a retransmission from below the floor not reported as duplicate")
	}
	newest := w.seen[len(w.seen)-1]
	if w.dup(newest-1) || !w.dup(newest-1) {
		t.Fatal("an out-of-order first arrival inside the window must be new once, then a duplicate")
	}
}

// Many more rendezvous transfers than the dedup window, over a transport
// that drops, duplicates and delays past the header timeout: every transfer
// is pulled and executed exactly once although headers are retransmitted,
// and what the receivers remember stays O(window) per PE pair instead of
// growing by one entry per transfer for the life of the machine.
func TestRendezvousDedupBounded(t *testing.T) {
	tr, err := transport.New("faulty:seed=41,drop=0.05,dup=0.02,delayrate=0.2,delaymax=3ms", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	const transfers, inflight = 10 * rzvDedupWindow, 8
	counts := make([]atomic.Int32, transfers)
	var delivered atomic.Int64
	var hData, hNext int
	next := 0 // next transfer id; PE 0 only
	send := func(pe *PE) {
		if next == transfers {
			return
		}
		payload := make([]byte, RendezvousThreshold+1)
		payload[0], payload[1] = byte(next), byte(next>>8)
		dst := 2 + next%2 // both PEs of the other node
		next++
		if err := pe.Send(dst, &Message{Handler: hData, Bytes: len(payload), Payload: payload}); err != nil {
			t.Errorf("send: %v", err)
		}
	}
	m := runMachine(t, Config{
		Nodes: 2, WorkersPerNode: 2, Mode: ModeSMP,
		Transport:         tr,
		RendezvousTimeout: time.Millisecond,
	}, func(m *Machine) {
		hData = m.RegisterHandler(func(pe *PE, msg *Message) {
			b := msg.Payload.([]byte)
			counts[int(b[0])|int(b[1])<<8].Add(1)
			if delivered.Add(1) == transfers {
				pe.Machine().Shutdown()
				return
			}
			_ = pe.Send(0, &Message{Handler: hNext, Bytes: 8})
		})
		hNext = m.RegisterHandler(func(pe *PE, msg *Message) { send(pe) })
	}, func(pe *PE) {
		if pe.Id() == 0 {
			for i := 0; i < inflight; i++ {
				send(pe)
			}
		}
	})

	for id := range counts {
		if n := counts[id].Load(); n != 1 {
			t.Fatalf("transfer %d executed %d times, want exactly once", id, n)
		}
	}
	rs := m.RendezvousStats()
	if rs.Pulled.Load() != transfers {
		t.Fatalf("Pulled = %d, want %d (duplicate headers must not re-pull)", rs.Pulled.Load(), transfers)
	}
	if rs.DupHeaders.Load() == 0 {
		t.Fatalf("no duplicate header ever reached a receiver — the filter was not exercised: %+v", statsSnapshot(rs))
	}
	m.rzvMu.Lock()
	defer m.rzvMu.Unlock()
	entries := 0
	for _, w := range m.rzvSeen {
		entries += len(w.seen)
	}
	if pairs := len(m.rzvSeen); pairs != 2 || entries > pairs*rzvDedupWindow {
		t.Fatalf("receivers remember %d sequence numbers over %d PE pairs after %d transfers, want at most %d per pair over 2 pairs",
			entries, pairs, transfers, rzvDedupWindow)
	}
}
