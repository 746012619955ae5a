package m2m

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/converse"
	"blueq/internal/flowctl"
	"blueq/internal/pami"
	"blueq/internal/transport"
)

func runMachine(t *testing.T, cfg converse.Config, setup func(m *converse.Machine, mgr *Manager), initPE func(pe *converse.PE)) {
	t.Helper()
	m, err := converse.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(m)
	setup(m, mgr)
	done := make(chan struct{})
	go func() {
		m.Run(initPE)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("machine did not shut down")
	}
}

// All-to-all: every PE sends one message to every PE (incl. itself); each
// receiver's completion fires after exactly numPEs messages.
func TestAllToAllCompletes(t *testing.T) {
	for _, mode := range []converse.Mode{converse.ModeSMP, converse.ModeSMPComm} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := converse.Config{Nodes: 2, WorkersPerNode: 4, Mode: mode}
			var h *Handle
			var completions atomic.Int64
			var msgs atomic.Int64
			runMachine(t, cfg,
				func(m *converse.Machine, mgr *Manager) {
					h = mgr.NewHandle()
					n := m.NumPEs()
					for src := 0; src < n; src++ {
						for dst := 0; dst < n; dst++ {
							src, dst := src, dst
							if err := h.RegisterSend(src, dst, src, 32, func() any { return [2]int{src, dst} }); err != nil {
								t.Fatal(err)
							}
						}
					}
					total := int64(n)
					for dst := 0; dst < n; dst++ {
						err := h.RegisterRecv(dst, n,
							func(pe *converse.PE, slot, srcPE int, data any) {
								v := data.([2]int)
								if v[0] != srcPE || v[1] != pe.Id() || slot != srcPE {
									t.Errorf("bad message %v at PE %d slot %d src %d", v, pe.Id(), slot, srcPE)
								}
								msgs.Add(1)
							},
							func(pe *converse.PE) {
								if completions.Add(1) == total {
									pe.Machine().Shutdown()
								}
							})
						if err != nil {
							t.Fatal(err)
						}
					}
				},
				func(pe *converse.PE) { h.Start(pe) })
			if completions.Load() != 8 {
				t.Fatalf("%d completions, want 8", completions.Load())
			}
			if msgs.Load() != 64 {
				t.Fatalf("%d messages, want 64", msgs.Load())
			}
		})
	}
}

// Persistent reuse: the same handle drives several iterations; each PE
// restarts its own sends on completion, payloads fetched fresh each time.
func TestPersistentIterations(t *testing.T) {
	cfg := converse.Config{Nodes: 2, WorkersPerNode: 2, Mode: converse.ModeSMPComm, CommThreads: 1}
	const iters = 5
	var h *Handle
	var msgs atomic.Int64
	var completions atomic.Int64
	runMachine(t, cfg,
		func(m *converse.Machine, mgr *Manager) {
			h = mgr.NewHandle()
			n := m.NumPEs()
			perPE := make([]atomic.Int64, n)
			for src := 0; src < n; src++ {
				src := src
				dst := (src + 1) % n
				if err := h.RegisterSend(src, dst, 0, 16, func() any { return src }); err != nil {
					t.Fatal(err)
				}
			}
			total := int64(iters * n)
			for dst := 0; dst < n; dst++ {
				err := h.RegisterRecv(dst, 1,
					func(pe *converse.PE, slot, srcPE int, data any) { msgs.Add(1) },
					func(pe *converse.PE) {
						k := perPE[pe.Id()].Add(1)
						if completions.Add(1) == total {
							pe.Machine().Shutdown()
							return
						}
						if k < iters {
							h.Start(pe)
						}
					})
				if err != nil {
					t.Fatal(err)
				}
			}
		},
		func(pe *converse.PE) { h.Start(pe) })
	if got, want := completions.Load(), int64(iters*4); got != want {
		t.Fatalf("completions = %d, want %d", got, want)
	}
	if got, want := msgs.Load(), int64(iters*4); got != want {
		t.Fatalf("messages = %d, want %d", got, want)
	}
}

func TestRegisterAfterStartFails(t *testing.T) {
	cfg := converse.Config{Nodes: 1, WorkersPerNode: 2, Mode: converse.ModeSMP}
	var h *Handle
	var regErr error
	var mu sync.Mutex
	runMachine(t, cfg,
		func(m *converse.Machine, mgr *Manager) {
			h = mgr.NewHandle()
			_ = h.RegisterSend(0, 1, 0, 8, func() any { return nil })
			_ = h.RegisterRecv(1, 1, nil, func(pe *converse.PE) {
				mu.Lock()
				regErr = h.RegisterSend(0, 1, 0, 8, func() any { return nil })
				mu.Unlock()
				pe.Machine().Shutdown()
			})
		},
		func(pe *converse.PE) {
			if pe.Id() == 0 {
				h.Start(pe)
			}
		})
	mu.Lock()
	defer mu.Unlock()
	if regErr == nil {
		t.Fatal("RegisterSend after Start succeeded")
	}
}

func TestRegisterSendValidation(t *testing.T) {
	m, err := converse.NewMachine(converse.Config{Nodes: 1, WorkersPerNode: 2, Mode: converse.ModeSMP})
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(m)
	h := mgr.NewHandle()
	if err := h.RegisterSend(-1, 0, 0, 8, nil); err == nil {
		t.Fatal("negative src accepted")
	}
	if err := h.RegisterSend(0, 99, 0, 8, nil); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
	if err := h.RegisterRecv(0, -1, nil, nil); err == nil {
		t.Fatal("negative expect accepted")
	}
}

func TestSendCount(t *testing.T) {
	m, err := converse.NewMachine(converse.Config{Nodes: 1, WorkersPerNode: 4, Mode: converse.ModeSMP})
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(m)
	h := mgr.NewHandle()
	for dst := 0; dst < 4; dst++ {
		if err := h.RegisterSend(1, dst, 0, 8, nil); err != nil {
			t.Fatal(err)
		}
	}
	if h.SendCount(1) != 4 || h.SendCount(0) != 0 {
		t.Fatalf("SendCount = %d/%d", h.SendCount(1), h.SendCount(0))
	}
}

// The comm-thread path splits a burst across contexts; all messages must
// still arrive exactly once, also when the burst does not divide evenly
// over the 4 contexts.
func TestBurstSplitAcrossCommThreads(t *testing.T) {
	for _, fanout := range []int{64, 5} { // messages from PE 0
		t.Run(fmt.Sprintf("fanout=%d", fanout), func(t *testing.T) {
			testBurstSplit(t, fanout)
		})
	}
}

func testBurstSplit(t *testing.T, fanout int) {
	cfg := converse.Config{Nodes: 2, WorkersPerNode: 4, Mode: converse.ModeSMPComm, CommThreads: 2}
	var h *Handle
	var seen sync.Map
	var count atomic.Int64
	runMachine(t, cfg,
		func(m *converse.Machine, mgr *Manager) {
			h = mgr.NewHandle()
			n := m.NumPEs()
			for i := 0; i < fanout; i++ {
				i := i
				dst := 1 + i%(n-1)
				if err := h.RegisterSend(0, dst, i, 32, func() any { return i }); err != nil {
					t.Fatal(err)
				}
			}
			expect := make([]int, n)
			for i := 0; i < fanout; i++ {
				expect[1+i%(n-1)]++
			}
			for dst := 1; dst < n; dst++ {
				err := h.RegisterRecv(dst, expect[dst],
					func(pe *converse.PE, slot, srcPE int, data any) {
						if _, dup := seen.LoadOrStore(slot, true); dup {
							t.Errorf("slot %d delivered twice", slot)
						}
						if count.Add(1) == int64(fanout) {
							pe.Machine().Shutdown()
						}
					}, nil)
				if err != nil {
					t.Fatal(err)
				}
			}
		},
		func(pe *converse.PE) {
			if pe.Id() == 0 {
				h.Start(pe)
			}
		})
	if count.Load() != int64(fanout) {
		t.Fatalf("delivered %d, want %d", count.Load(), fanout)
	}
}

// All-to-all over non-default transports: the m2m burst must complete with
// exactly-once slot delivery when the substrate contends links or injects
// drops/duplicates (repaired by the PAMI reliability sublayer below).
func TestAllToAllAcrossTransports(t *testing.T) {
	for _, spec := range []string{"contended", "faulty:seed=11,drop=0.05,dup=0.02"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			base, max := pami.RetryBase, pami.RetryMax
			pami.RetryBase, pami.RetryMax = 200*time.Microsecond, 2*time.Millisecond
			t.Cleanup(func() { pami.RetryBase, pami.RetryMax = base, max })
			tr, err := transport.New(spec, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			cfg := converse.Config{Nodes: 2, WorkersPerNode: 4, Mode: converse.ModeSMP, Transport: tr}
			var h *Handle
			var completions atomic.Int64
			var msgs atomic.Int64
			var seen sync.Map
			runMachine(t, cfg,
				func(m *converse.Machine, mgr *Manager) {
					h = mgr.NewHandle()
					n := m.NumPEs()
					for src := 0; src < n; src++ {
						for dst := 0; dst < n; dst++ {
							src, dst := src, dst
							if err := h.RegisterSend(src, dst, src, 32, func() any { return [2]int{src, dst} }); err != nil {
								t.Fatal(err)
							}
						}
					}
					total := int64(n)
					for dst := 0; dst < n; dst++ {
						err := h.RegisterRecv(dst, n,
							func(pe *converse.PE, slot, srcPE int, data any) {
								if _, dup := seen.LoadOrStore([2]int{pe.Id(), slot}, true); dup {
									t.Errorf("PE %d slot %d delivered twice", pe.Id(), slot)
								}
								msgs.Add(1)
							},
							func(pe *converse.PE) {
								if completions.Add(1) == total {
									pe.Machine().Shutdown()
								}
							})
						if err != nil {
							t.Fatal(err)
						}
					}
				},
				func(pe *converse.PE) { h.Start(pe) })
			if completions.Load() != 8 || msgs.Load() != 64 {
				t.Fatalf("completions=%d msgs=%d, want 8/64", completions.Load(), msgs.Load())
			}
		})
	}
}

// Burst admission: with flow control armed, a fan-in burst toward one
// slow PE is admitted at most BurstLimit messages at a time. Senders park
// instead of landing the whole burst at once; everything still arrives.
func TestBurstAdmissionThrottlesFanIn(t *testing.T) {
	cfg := converse.Config{
		Nodes:          2,
		WorkersPerNode: 2,
		Mode:           converse.ModeSMP,
		FlowControl:    &flowctl.Config{BurstLimit: 2, MaxBlock: 10 * time.Second},
	}
	const perSender = 20
	var h *Handle
	var msgs atomic.Int64
	runMachine(t, cfg,
		func(m *converse.Machine, mgr *Manager) {
			// Every PE floods PE 3, which executes slowly.
			m.PE(3).SetInvokeDelay(100 * time.Microsecond)
			h = mgr.NewHandle()
			n := m.NumPEs()
			for src := 0; src < n; src++ {
				src := src
				for i := 0; i < perSender; i++ {
					if err := h.RegisterSend(src, 3, src, 32, func() any { return src }); err != nil {
						t.Fatal(err)
					}
				}
			}
			err := h.RegisterRecv(3, n*perSender,
				func(pe *converse.PE, slot, srcPE int, data any) { msgs.Add(1) },
				func(pe *converse.PE) { pe.Machine().Shutdown() })
			if err != nil {
				t.Fatal(err)
			}
		},
		func(pe *converse.PE) { h.Start(pe) })
	if got := msgs.Load(); got != 4*perSender {
		t.Fatalf("delivered %d/%d burst messages", got, 4*perSender)
	}
	if h.BurstParked() == 0 {
		t.Fatal("the fan-in never parked on burst admission")
	}
}

// With aggregation armed a burst is grouped by destination, and a run
// longer than BurstLimit goes out one limit-sized run at a time: each run
// is sent before the next is admitted, so its deliveries free the slots
// the next one parks on. Reserving every chunk before sending any would
// leave the later chunks nothing to wait for but MaxBlock.
func TestAggregatedRunLongerThanBurstLimit(t *testing.T) {
	const maxBlock = 5 * time.Second
	cfg := converse.Config{
		Nodes:          2,
		WorkersPerNode: 1,
		Mode:           converse.ModeSMP,
		FlowControl:    &flowctl.Config{BurstLimit: 2, MaxBlock: maxBlock},
		Aggregation:    &aggregate.Config{},
	}
	const burst = 6 // three limit-sized runs to PE 1
	var h *Handle
	var msgs atomic.Int64
	start := time.Now()
	runMachine(t, cfg,
		func(m *converse.Machine, mgr *Manager) {
			h = mgr.NewHandle()
			for i := 0; i < burst; i++ {
				if err := h.RegisterSend(0, 1, i, 32, func() any { return nil }); err != nil {
					t.Fatal(err)
				}
			}
			err := h.RegisterRecv(1, burst,
				func(pe *converse.PE, slot, srcPE int, data any) { msgs.Add(1) },
				func(pe *converse.PE) { pe.Machine().Shutdown() })
			if err != nil {
				t.Fatal(err)
			}
		},
		func(pe *converse.PE) {
			if pe.Id() == 0 {
				h.Start(pe)
			}
		})
	if got := msgs.Load(); got != burst {
		t.Fatalf("delivered %d/%d burst messages", got, burst)
	}
	if e := time.Since(start); e >= maxBlock {
		t.Fatalf("burst took %v: a run waited out MaxBlock (%v)", e, maxBlock)
	}
}
