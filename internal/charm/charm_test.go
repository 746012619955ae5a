package charm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/converse"
)

func smallCfg(nodes, workers int, mode converse.Mode) converse.Config {
	return converse.Config{Nodes: nodes, WorkersPerNode: workers, Mode: mode}
}

// runRT runs main on a fresh runtime with a watchdog.
func runRT(t *testing.T, cfg converse.Config, declare func(rt *Runtime), main func(pe *converse.PE)) *Runtime {
	t.Helper()
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	declare(rt)
	done := make(chan struct{})
	go func() {
		rt.Run(main)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("runtime did not shut down")
	}
	return rt
}

type counterChare struct {
	hits atomic.Int64
}

func TestArrayElementsInstantiatedOnHomePEs(t *testing.T) {
	var homes sync.Map // idx -> pe id at factory time... factory runs on home PE
	rt, err := NewRuntime(smallCfg(2, 2, converse.ModeSMP))
	if err != nil {
		t.Fatal(err)
	}
	a := rt.NewArray("test", 8, func(idx int) Element {
		homes.Store(idx, true)
		return &counterChare{}
	})
	eDone := a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
		pe.Machine().Shutdown()
	})
	go rt.Run(func(pe *converse.PE) { _ = a.Send(pe, 0, eDone, nil, 8) })
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := 0
		homes.Range(func(any, any) bool { n++; return true })
		if n == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/8 elements instantiated", n)
		}
		time.Sleep(time.Millisecond)
	}
	// Block mapping over 4 PEs: 2 elements each.
	counts := map[int]int{}
	for i := 0; i < 8; i++ {
		counts[a.HomePE(i)]++
	}
	for pe, c := range counts {
		if c != 2 {
			t.Fatalf("PE %d homes %d elements, want 2 (map %v)", pe, c, counts)
		}
	}
}

func TestArraySendInvokesEntryWithPayload(t *testing.T) {
	var got atomic.Value
	var a *Array
	var eRecv int
	runRT(t, smallCfg(2, 2, converse.ModeSMP),
		func(rt *Runtime) {
			a = rt.NewArray("a", 4, func(idx int) Element { return &counterChare{} })
			eRecv = a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
				got.Store([2]int{idx, payload.(int)})
				pe.Machine().Shutdown()
			})
		},
		func(pe *converse.PE) {
			if err := a.Send(pe, 3, eRecv, 99, 16); err != nil {
				t.Errorf("send: %v", err)
			}
		})
	if got.Load().([2]int) != [2]int{3, 99} {
		t.Fatalf("entry got %v", got.Load())
	}
}

func TestArraySendErrors(t *testing.T) {
	rt, err := NewRuntime(smallCfg(1, 1, converse.ModeSMP))
	if err != nil {
		t.Fatal(err)
	}
	a := rt.NewArray("a", 2, func(idx int) Element { return nil })
	e := a.Entry(func(*converse.PE, Element, int, any) {})
	pe := rt.Machine().PE(0)
	if err := a.Send(pe, 7, e, nil, 0); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := a.Send(pe, 0, 99, nil, 0); err == nil {
		t.Fatal("unknown entry accepted")
	}
}

func TestBroadcastHitsEveryElement(t *testing.T) {
	const n = 10
	var count atomic.Int64
	var a *Array
	runRT(t, smallCfg(2, 2, converse.ModeSMPComm),
		func(rt *Runtime) {
			a = rt.NewArray("bc", n, func(idx int) Element { return &counterChare{} })
			a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
				elem.(*counterChare).hits.Add(1)
				if count.Add(1) == n {
					pe.Machine().Shutdown()
				}
			})
		},
		func(pe *converse.PE) {
			if err := a.Broadcast(pe, 0, nil, 8); err != nil {
				t.Errorf("broadcast: %v", err)
			}
		})
	for i := 0; i < n; i++ {
		if h := a.Element(i).(*counterChare).hits.Load(); h != 1 {
			t.Fatalf("element %d hit %d times", i, h)
		}
	}
}

// Each element contributes exactly once; the reduction must fire exactly
// once with the correct sum.
func TestReductionSum(t *testing.T) {
	const n = 16
	var result atomic.Value
	var fires atomic.Int64
	var a *Array
	var eGo int
	runRT(t, smallCfg(2, 4, converse.ModeSMP),
		func(rt *Runtime) {
			a = rt.NewArray("red", n, func(idx int) Element { return nil })
			eGo = a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
				err := a.Contribute(pe, 1, []float64{float64(idx), 1}, ReduceSum,
					func(pe *converse.PE, res []float64) {
						fires.Add(1)
						result.Store(append([]float64(nil), res...))
						pe.Machine().Shutdown()
					})
				if err != nil {
					t.Errorf("contribute: %v", err)
				}
			})
		},
		func(pe *converse.PE) {
			if err := a.Broadcast(pe, eGo, nil, 8); err != nil {
				t.Errorf("broadcast: %v", err)
			}
		})
	res := result.Load().([]float64)
	wantSum := float64(n * (n - 1) / 2)
	if res[0] != wantSum || res[1] != n {
		t.Fatalf("reduction = %v, want [%v %v]", res, wantSum, float64(n))
	}
	if fires.Load() != 1 {
		t.Fatalf("reduction fired %d times", fires.Load())
	}
}

func TestReductionMaxMin(t *testing.T) {
	const n = 8
	var res atomic.Value
	var a *Array
	var eGo int
	runRT(t, smallCfg(1, 2, converse.ModeSMP),
		func(rt *Runtime) {
			a = rt.NewArray("mm", n, func(idx int) Element { return nil })
			eGo = a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
				op := ReduceMax
				seq := uint64(1)
				_ = a.Contribute(pe, seq, []float64{float64(idx)}, op,
					func(pe *converse.PE, r []float64) {
						res.Store(r[0])
						pe.Machine().Shutdown()
					})
			})
		},
		func(pe *converse.PE) { _ = a.Broadcast(pe, eGo, nil, 8) })
	if res.Load().(float64) != n-1 {
		t.Fatalf("max reduction = %v, want %v", res.Load(), n-1)
	}
}

// Two overlapping reduction generations must not mix.
func TestConcurrentReductionGenerations(t *testing.T) {
	const n = 6
	var r1, r2 atomic.Value
	var both atomic.Int64
	var a *Array
	var eGo int
	runRT(t, smallCfg(1, 2, converse.ModeSMP),
		func(rt *Runtime) {
			a = rt.NewArray("gen", n, func(idx int) Element { return nil })
			eGo = a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
				done := func(slot *atomic.Value) ReductionTarget {
					return func(pe *converse.PE, r []float64) {
						slot.Store(r[0])
						if both.Add(1) == 2 {
							pe.Machine().Shutdown()
						}
					}
				}
				_ = a.Contribute(pe, 1, []float64{1}, ReduceSum, done(&r1))
				_ = a.Contribute(pe, 2, []float64{2}, ReduceSum, done(&r2))
			})
		},
		func(pe *converse.PE) { _ = a.Broadcast(pe, eGo, nil, 8) })
	if r1.Load().(float64) != n || r2.Load().(float64) != 2*n {
		t.Fatalf("generations mixed: %v %v", r1.Load(), r2.Load())
	}
}

func TestGroupOnePerPE(t *testing.T) {
	var g *Group
	var count atomic.Int64
	rt := runRT(t, smallCfg(2, 2, converse.ModeSMP),
		func(rt *Runtime) {
			g = rt.NewGroup("grp", func(pe int) Element { return &counterChare{} })
			total := int64(rt.NumPEs())
			g.Entry(func(pe *converse.PE, elem Element, payload any) {
				elem.(*counterChare).hits.Add(1)
				if count.Add(1) == total {
					pe.Machine().Shutdown()
				}
			})
		},
		func(pe *converse.PE) {
			if err := g.Broadcast(pe, 0, nil, 8); err != nil {
				t.Errorf("broadcast: %v", err)
			}
		})
	for p := 0; p < rt.NumPEs(); p++ {
		if h := g.ElementOn(p).(*counterChare).hits.Load(); h != 1 {
			t.Fatalf("group element on PE %d hit %d times", p, h)
		}
	}
	// Tree-based group broadcast keeps quiescence accounting balanced.
	rt.DetectQuiescence()
	if rt.MessagesSent() != rt.MessagesExecuted() {
		t.Fatalf("QD imbalance after group broadcast: sent %d executed %d",
			rt.MessagesSent(), rt.MessagesExecuted())
	}
}

func TestGroupSendTargetsOnePE(t *testing.T) {
	var g *Group
	var hitPE atomic.Int64
	runRT(t, smallCfg(2, 2, converse.ModeSMP),
		func(rt *Runtime) {
			g = rt.NewGroup("grp", func(pe int) Element { return nil })
			g.Entry(func(pe *converse.PE, elem Element, payload any) {
				hitPE.Store(int64(pe.Id()))
				pe.Machine().Shutdown()
			})
		},
		func(pe *converse.PE) { _ = g.Send(pe, 2, 0, nil, 8) })
	if hitPE.Load() != 2 {
		t.Fatalf("group entry ran on PE %d, want 2", hitPE.Load())
	}
}

// A token ring visits every element 3 times; the runtime reaches quiescence
// with sent == executed afterwards.
func TestQuiescenceAfterRing(t *testing.T) {
	const n = 12
	const laps = 3
	var a *Array
	var eToken int
	rt := runRT(t, smallCfg(2, 3, converse.ModeSMP),
		func(rt *Runtime) {
			a = rt.NewArray("ring", n, func(idx int) Element { return nil })
			eToken = a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
				hops := payload.(int)
				if hops >= n*laps {
					pe.Machine().Shutdown()
					return
				}
				if err := a.Send(pe, (idx+1)%n, eToken, hops+1, 8); err != nil {
					t.Errorf("send: %v", err)
				}
			})
		},
		func(pe *converse.PE) { _ = a.Send(pe, 0, eToken, 0, 8) })
	rt.DetectQuiescence()
	if rt.MessagesSent() != rt.MessagesExecuted() {
		t.Fatalf("sent %d != executed %d", rt.MessagesSent(), rt.MessagesExecuted())
	}
	if rt.MessagesExecuted() < n*laps {
		t.Fatalf("executed %d < %d", rt.MessagesExecuted(), n*laps)
	}
}

// After elements migrate, messages still reach each exactly once, on its
// new home (forwarding covers stragglers sent to the old home, parking
// covers ones that beat the blob there).
func TestSendsAfterMigration(t *testing.T) {
	const n = 8
	var count atomic.Int64
	var a *Array
	var eMove, ePing int
	runRT(t, smallCfg(2, 2, converse.ModeSMP),
		func(rt *Runtime) {
			a = rt.NewArray("mig", n, func(idx int) Element { return &counterElem{} })
			eMove = a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
				if err := a.MigrateElement(pe, idx, (pe.Id()+1)%pe.NumPEs()); err != nil {
					t.Errorf("migrate %d: %v", idx, err)
				}
			})
			ePing = a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
				if pe.Id() != a.HomePE(idx) {
					t.Errorf("entry for %d ran on PE %d, home %d", idx, pe.Id(), a.HomePE(idx))
				}
				if count.Add(1) == n {
					pe.Machine().Shutdown()
				}
			})
		},
		func(pe *converse.PE) {
			for i := 0; i < n; i++ {
				for _, e := range []int{eMove, ePing} {
					if err := a.Send(pe, i, e, nil, 8); err != nil {
						t.Errorf("send: %v", err)
					}
				}
			}
		})
	if count.Load() != n {
		t.Fatalf("delivered %d, want %d", count.Load(), n)
	}
	for i := 0; i < n; i++ {
		if want := (blockMap(i, n, 4) + 1) % 4; a.HomePE(i) != want {
			t.Errorf("element %d homed on PE %d after migrating to %d", i, a.HomePE(i), want)
		}
	}
}

func TestDeclareAfterRunPanics(t *testing.T) {
	rt, err := NewRuntime(smallCfg(1, 1, converse.ModeSMP))
	if err != nil {
		t.Fatal(err)
	}
	a := rt.NewArray("x", 1, func(int) Element { return nil })
	e := a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) { pe.Machine().Shutdown() })
	done := make(chan struct{})
	go func() {
		rt.Run(func(pe *converse.PE) { _ = a.Send(pe, 0, e, nil, 0) })
		close(done)
	}()
	<-done
	for _, f := range []func(){
		func() { rt.NewArray("y", 1, nil) },
		func() { rt.NewGroup("z", nil) },
		func() { a.Entry(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("declaration after Run did not panic")
				}
			}()
			f()
		}()
	}
}

func TestBlockMapCoversAllPEs(t *testing.T) {
	for _, tc := range []struct{ n, npes int }{{8, 4}, {7, 4}, {100, 16}, {3, 8}} {
		seen := map[int]bool{}
		last := 0
		for i := 0; i < tc.n; i++ {
			pe := blockMap(i, tc.n, tc.npes)
			if pe < last {
				t.Fatalf("blockMap not monotone at %d", i)
			}
			if pe >= tc.npes {
				t.Fatalf("blockMap(%d,%d,%d) = %d out of range", i, tc.n, tc.npes, pe)
			}
			last = pe
			seen[pe] = true
		}
		if tc.n >= tc.npes && len(seen) != tc.npes {
			t.Fatalf("n=%d npes=%d: only %d PEs used", tc.n, tc.npes, len(seen))
		}
	}
}
