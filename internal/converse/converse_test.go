package converse

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runMachine builds a machine, registers handlers via setup, runs it until
// Shutdown, with a watchdog.
func runMachine(t *testing.T, cfg Config, setup func(m *Machine), initPE func(pe *PE)) *Machine {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setup(m)
	done := make(chan struct{})
	go func() {
		m.Run(initPE)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("machine did not shut down (deadlock?)")
	}
	return m
}

func TestConfigNormalize(t *testing.T) {
	cfg := Config{Nodes: 2, WorkersPerNode: 8, Mode: ModeNonSMP}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.WorkersPerNode != 1 || cfg.CommThreads != 0 {
		t.Fatalf("nonSMP normalize: %+v", cfg)
	}
	cfg2 := Config{Nodes: 2, WorkersPerNode: 8, Mode: ModeSMPComm}
	if err := cfg2.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg2.CommThreads != 2 {
		t.Fatalf("default comm threads = %d, want 2", cfg2.CommThreads)
	}
	bad := Config{Nodes: 0}
	if err := bad.normalize(); err == nil {
		t.Fatal("Nodes=0 accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModeNonSMP.String() != "nonSMP" || ModeSMP.String() != "SMP" || ModeSMPComm.String() != "SMP+comm" {
		t.Fatal("mode strings wrong")
	}
}

// Ping-pong across nodes in each mode.
func TestPingPongAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeNonSMP, ModeSMP, ModeSMPComm} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{Nodes: 2, WorkersPerNode: 2, Mode: mode}
			const rounds = 200
			var count atomic.Int64
			var h int
			m := runMachine(t, cfg,
				func(m *Machine) {
					h = m.RegisterHandler(func(pe *PE, msg *Message) {
						n := msg.Payload.(int)
						count.Add(1)
						if n >= rounds {
							pe.Machine().Shutdown()
							return
						}
						// bounce to the peer PE on the other node
						dst := (pe.Id() + pe.NumPEs()/2) % pe.NumPEs()
						if err := pe.Send(dst, &Message{Handler: h, Bytes: 32, Payload: n + 1}); err != nil {
							t.Errorf("send: %v", err)
							pe.Machine().Shutdown()
						}
					})
				},
				func(pe *PE) {
					if pe.Id() == 0 {
						if err := pe.Send(pe.NumPEs()-1, &Message{Handler: h, Bytes: 32, Payload: 1}); err != nil {
							t.Errorf("initial send: %v", err)
						}
					}
				})
			if count.Load() < rounds {
				t.Fatalf("bounced %d times, want >= %d", count.Load(), rounds)
			}
			_ = m
		})
	}
}

// Intra-node sends are pointer exchanges: the receiving handler must see
// the identical payload pointer.
func TestIntraNodePointerExchange(t *testing.T) {
	type big struct{ data [1024]byte }
	payload := &big{}
	var same atomic.Bool
	var h int
	runMachine(t, Config{Nodes: 1, WorkersPerNode: 2, Mode: ModeSMP},
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				same.Store(msg.Payload.(*big) == payload)
				pe.Machine().Shutdown()
			})
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				if err := pe.Send(1, &Message{Handler: h, Bytes: 1024, Payload: payload}); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		})
	if !same.Load() {
		t.Fatal("intra-node message was not a pointer exchange")
	}
}

func TestBroadcastReachesAllPEs(t *testing.T) {
	cfg := Config{Nodes: 4, WorkersPerNode: 4, Mode: ModeSMPComm, CommThreads: 1}
	var got sync.Map
	var count atomic.Int64
	var h int
	runMachine(t, cfg,
		func(m *Machine) {
			total := int64(m.NumPEs())
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				if _, dup := got.LoadOrStore(pe.Id(), true); dup {
					t.Errorf("PE %d got broadcast twice", pe.Id())
				}
				if count.Add(1) == total {
					pe.Machine().Shutdown()
				}
			})
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				if err := pe.Broadcast(&Message{Handler: h, Bytes: 8}); err != nil {
					t.Errorf("broadcast: %v", err)
				}
			}
		})
	if int(count.Load()) != 16 {
		t.Fatalf("broadcast reached %d PEs, want 16", count.Load())
	}
}

// Priority: a lower-Prio message enqueued later must run before a
// higher-Prio one when both are pending.
func TestPriorityScheduling(t *testing.T) {
	var order []int
	var mu sync.Mutex
	var hLow, hHigh, hStart int
	runMachine(t, Config{Nodes: 1, WorkersPerNode: 2, Mode: ModeSMP},
		func(m *Machine) {
			record := func(v int, last bool) {
				mu.Lock()
				order = append(order, v)
				mu.Unlock()
				if last {
					m.Shutdown()
				}
			}
			hLow = m.RegisterHandler(func(pe *PE, msg *Message) { record(0, false) })
			hHigh = m.RegisterHandler(func(pe *PE, msg *Message) { record(1, true) })
			hStart = m.RegisterHandler(func(pe *PE, msg *Message) {
				// Enqueue both to self while busy so they are pending
				// simultaneously; high Prio value should run last.
				_ = pe.Send(pe.Id(), &Message{Handler: hHigh, Prio: 10})
				_ = pe.Send(pe.Id(), &Message{Handler: hLow, Prio: -10})
				// Give the queue time to contain both before returning.
				time.Sleep(10 * time.Millisecond)
			})
		},
		func(pe *PE) {
			if pe.Id() == 1 {
				_ = pe.Send(1, &Message{Handler: hStart})
			}
		})
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("execution order = %v, want [0 1]", order)
	}
}

func TestSendOutOfRange(t *testing.T) {
	m, err := NewMachine(Config{Nodes: 1, WorkersPerNode: 1, Mode: ModeSMP})
	if err != nil {
		t.Fatal(err)
	}
	pe := m.PE(0)
	if err := pe.Send(99, &Message{}); err == nil {
		t.Fatal("send to bad PE accepted")
	}
}

// Many-to-one flood: all PEs hammer PE 0; exactly-once delivery.
func TestManyToOneFlood(t *testing.T) {
	cfg := Config{Nodes: 4, WorkersPerNode: 4, Mode: ModeSMP}
	const perPE = 300
	var h int
	var received sync.Map
	var count atomic.Int64
	m := runMachine(t, cfg,
		func(m *Machine) {
			total := int64((m.NumPEs() - 1) * perPE)
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				key := msg.Payload.([2]int)
				if _, dup := received.LoadOrStore(key, true); dup {
					t.Errorf("duplicate %v", key)
				}
				if count.Add(1) == total {
					pe.Machine().Shutdown()
				}
			})
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				return
			}
			for i := 0; i < perPE; i++ {
				if err := pe.Send(0, &Message{Handler: h, Bytes: 16, Payload: [2]int{pe.Id(), i}}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		})
	want := int64((m.NumPEs() - 1) * perPE)
	if count.Load() != want {
		t.Fatalf("received %d, want %d", count.Load(), want)
	}
}

// Large messages (> pami.ShortLimit) take the two-descriptor path and still
// arrive intact.
func TestLargeMessage(t *testing.T) {
	payload := make([]byte, 1<<20)
	payload[777] = 42
	var ok atomic.Bool
	var h int
	runMachine(t, Config{Nodes: 2, WorkersPerNode: 1, Mode: ModeSMP},
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				b := msg.Payload.([]byte)
				ok.Store(len(b) == 1<<20 && b[777] == 42)
				pe.Machine().Shutdown()
			})
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				if err := pe.Send(1, &Message{Handler: h, Bytes: len(payload), Payload: payload}); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		})
	if !ok.Load() {
		t.Fatal("large message corrupted")
	}
}

func TestExecutedAndIdleCounters(t *testing.T) {
	var h int
	m := runMachine(t, Config{Nodes: 1, WorkersPerNode: 1, Mode: ModeSMP},
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				pe.Machine().Shutdown()
			})
		},
		func(pe *PE) {
			_ = pe.Send(0, &Message{Handler: h})
		})
	if m.PE(0).Executed() != 1 {
		t.Fatalf("Executed = %d, want 1", m.PE(0).Executed())
	}
}

func TestRegisterAfterStartPanics(t *testing.T) {
	m, err := NewMachine(Config{Nodes: 1, WorkersPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := m.RegisterHandler(func(pe *PE, msg *Message) { pe.Machine().Shutdown() })
	go m.Run(func(pe *PE) { _ = pe.Send(0, &Message{Handler: h}) })
	defer func() {
		if recover() == nil {
			t.Error("RegisterHandler after Start did not panic")
		}
	}()
	time.Sleep(50 * time.Millisecond)
	m.RegisterHandler(nil)
}
