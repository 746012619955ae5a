package lb_test

import (
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/lb"
	"blueq/internal/pami"
	"blueq/internal/scenario"
	"blueq/internal/transport"
)

// tightFaultyRetries shrinks the PAMI retransmission timers so runs over
// lossy transports repair drops in milliseconds.
func tightFaultyRetries(t *testing.T) {
	t.Helper()
	base, max := pami.RetryBase, pami.RetryMax
	pami.RetryBase, pami.RetryMax = 200*time.Microsecond, 2*time.Millisecond
	t.Cleanup(func() { pami.RetryBase, pami.RetryMax = base, max })
}

const (
	lbNElems = 8
	lbWarmup = 6
	lbTotal  = 14
)

// runCentralLB drives a skewed self-resending workload — elements 0 and 1
// (both homed on PE 0 by the block map) cost 10× the rest — through an
// AtSync barrier after lbWarmup iterations. The barrier runs the strategy,
// migrates, broadcasts ResumeFromSync, and the elements finish their
// remaining iterations wherever they now live.
func runCentralLB(t *testing.T, spec string, strat lb.Strategy) (*lb.Manager, *charm.Array) {
	t.Helper()
	const nodes, workers = 2, 2
	cfg := converse.Config{Nodes: nodes, WorkersPerNode: workers, Mode: converse.ModeSMP}
	if spec != "" {
		tr, err := transport.New(spec, nodes, workers)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		cfg.Transport = tr
	}
	rt, err := charm.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr := lb.Attach(rt, lb.Config{Strategy: strat})
	var a *charm.Array
	var eWork, eResume int
	var done atomic.Int64
	a = rt.NewArray("work", lbNElems, func(idx int) charm.Element { return &scenario.Elem{} })
	eWork = a.Entry(func(pe *converse.PE, elem charm.Element, idx int, _ any) {
		w := elem.(*scenario.Elem)
		if idx < 2 {
			// Sleep-based cost: sleeps overlap across PE goroutines, so
			// balancing them shows up as wall-clock parallelism even on a
			// single-core host. 4ms vs 150µs keeps the skew unambiguous
			// after the ~1ms timer granularity inflates the light side.
			time.Sleep(4 * time.Millisecond)
		} else {
			time.Sleep(150 * time.Microsecond)
		}
		w.Step(idx)
		switch {
		case w.Iter == lbWarmup:
			mgr.AtSync(pe, a, idx)
		case w.Iter >= lbTotal:
			if done.Add(1) == lbNElems {
				pe.Machine().Shutdown()
			}
		default:
			if err := a.Send(pe, idx, eWork, nil, 8); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	eResume = a.Entry(func(pe *converse.PE, _ charm.Element, idx int, _ any) {
		if err := a.Send(pe, idx, eWork, nil, 8); err != nil {
			t.Errorf("resume send: %v", err)
		}
	})
	mgr.Manage(a, eResume)

	ran := make(chan struct{})
	go func() {
		rt.Run(func(pe *converse.PE) {
			if err := a.Broadcast(pe, eWork, nil, 8); err != nil {
				t.Errorf("broadcast: %v", err)
			}
		})
		close(ran)
	}()
	select {
	case <-ran:
	case <-time.After(60 * time.Second):
		t.Fatal("runtime did not shut down")
	}
	return mgr, a
}

func assertExactWork(t *testing.T, a *charm.Array) {
	t.Helper()
	for idx := 0; idx < lbNElems; idx++ {
		w := a.Element(idx).(*scenario.Elem)
		if w.Iter != lbTotal {
			t.Errorf("element %d executed %d iterations, want %d", idx, w.Iter, lbTotal)
		}
		if want := scenario.WantSum(idx, lbTotal); w.Sum != want {
			t.Errorf("element %d sum = %d, want %d (lost or duplicated work)", idx, w.Sum, want)
		}
	}
}

// An AtSync barrier with GreedyLB separates the two heavy elements that
// start on the same PE, every element resumes from ResumeFromSync, and no
// message is lost or doubled across the migrations.
func TestCentralLBBalancesSkew(t *testing.T) {
	mgr, a := runCentralLB(t, "", lb.Greedy{})
	if got := mgr.Rounds(); got != 1 {
		t.Errorf("LB rounds = %d, want 1", got)
	}
	if mgr.Moves() == 0 {
		t.Error("barrier ran but migrated nothing")
	}
	if a.HomePE(0) == 0 && a.HomePE(1) == 0 {
		t.Errorf("both heavy elements still homed on PE 0 (homes %d, %d)", a.HomePE(0), a.HomePE(1))
	}
	assertExactWork(t, a)
}

// RefineLB over the same skew also moves load off the hot PE while the
// workload's accounting stays exact.
func TestCentralLBRefineBalancesSkew(t *testing.T) {
	mgr, a := runCentralLB(t, "", lb.Refine{})
	if mgr.Moves() == 0 {
		t.Error("refine pass migrated nothing off an overloaded PE")
	}
	if a.HomePE(0) == 0 && a.HomePE(1) == 0 {
		t.Errorf("both heavy elements still homed on PE 0 (homes %d, %d)", a.HomePE(0), a.HomePE(1))
	}
	assertExactWork(t, a)
}

// The same balanced run over a dropping, duplicating, reordering
// transport: migration blobs, migrate commands and resume broadcasts all
// ride the reliability layer, so every element still executes exactly
// once per iteration.
func TestCentralLBFaultyTransportExactlyOnce(t *testing.T) {
	tightFaultyRetries(t)
	mgr, a := runCentralLB(t, "faulty:seed=11,drop=0.08,dup=0.04,delayrate=0.2,delaymax=200us", lb.Greedy{})
	if mgr.Moves() == 0 {
		t.Error("barrier ran but migrated nothing")
	}
	assertExactWork(t, a)
}

// Barrier-free diffusion: only elements 0 and 1 (both on PE 0) do work;
// the gossip loop spreads load views and the overloaded PE sheds its
// largest element that fits half the gap — no AtSync anywhere.
func TestDiffusionShedsLoad(t *testing.T) {
	const iters = 40
	rt, err := charm.NewRuntime(converse.Config{Nodes: 2, WorkersPerNode: 2, Mode: converse.ModeSMP})
	if err != nil {
		t.Fatal(err)
	}
	mgr := lb.Attach(rt, lb.Config{Diffusion: true, Period: 300 * time.Microsecond})
	var a *charm.Array
	var eWork int
	var done atomic.Int64
	a = rt.NewArray("diff", lbNElems, func(idx int) charm.Element { return &scenario.Elem{} })
	eWork = a.Entry(func(pe *converse.PE, elem charm.Element, idx int, _ any) {
		w := elem.(*scenario.Elem)
		if idx == 0 {
			time.Sleep(2 * time.Millisecond)
		} else {
			time.Sleep(500 * time.Microsecond)
		}
		w.Step(idx)
		if w.Iter >= iters {
			if done.Add(1) == 2 {
				pe.Machine().Shutdown()
			}
			return
		}
		if err := a.Send(pe, idx, eWork, nil, 8); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	mgr.Manage(a, -1)

	ran := make(chan struct{})
	go func() {
		rt.Run(func(pe *converse.PE) {
			for idx := 0; idx < 2; idx++ {
				if err := a.Send(pe, idx, eWork, nil, 8); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		})
		close(ran)
	}()
	select {
	case <-ran:
	case <-time.After(60 * time.Second):
		t.Fatal("runtime did not shut down")
	}

	if mgr.Moves() == 0 {
		t.Error("diffusion never migrated despite a persistently overloaded PE")
	}
	if a.HomePE(0) == 0 && a.HomePE(1) == 0 {
		t.Errorf("diffusion left both busy elements on PE 0 (homes %d, %d)", a.HomePE(0), a.HomePE(1))
	}
	for idx := 0; idx < 2; idx++ {
		w := a.Element(idx).(*scenario.Elem)
		if w.Iter != iters {
			t.Errorf("element %d executed %d iterations, want %d", idx, w.Iter, iters)
		}
		if want := scenario.WantSum(idx, iters); w.Sum != want {
			t.Errorf("element %d sum = %d, want %d", idx, w.Sum, want)
		}
	}
	for idx := 2; idx < lbNElems; idx++ {
		if w := a.Element(idx).(*scenario.Elem); w.Iter != 0 {
			t.Errorf("idle element %d executed %d iterations", idx, w.Iter)
		}
	}
}
