package scenario

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/flowctl"
	"blueq/internal/ft"
	"blueq/internal/lb"
)

// Elem is the migratable, checkpointable element of the imbalance
// workload. Its state is a pure function of (index, iterations executed),
// so one delivery lost or duplicated anywhere — across migrations,
// forwarding pointers, parked messages, recovery replay — shows up as a
// wrong Sum.
type Elem struct {
	Iter, Sum uint64
}

func (e *Elem) PackCheckpoint() []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, e.Iter)
	binary.LittleEndian.PutUint64(b[8:], e.Sum)
	return b
}

func (e *Elem) UnpackCheckpoint(data []byte) {
	e.Iter = binary.LittleEndian.Uint64(data)
	e.Sum = binary.LittleEndian.Uint64(data[8:])
}

// Step is one iteration of element idx's work.
func (e *Elem) Step(idx int) {
	e.Iter++
	e.Sum += uint64(idx+1) * e.Iter
}

// WantSum is Elem.Sum for element idx after n iterations: Σₖ (idx+1)·k.
func WantSum(idx int, n uint64) uint64 { return uint64(idx+1) * n * (n + 1) / 2 }

// Exact is the Result an exactly-once run of elems elements for iters
// iterations must end with; compare with SameBits.
func Exact(elems, iters int) Result {
	var res Result
	for idx := 0; idx < elems; idx++ {
		res.States = append(res.States, [2]uint64{uint64(iters), WantSum(idx, uint64(iters))})
	}
	return res
}

const (
	// LightCost is what an iteration of a non-heavy element costs.
	LightCost = 100 * time.Microsecond
	// settleTimeout bounds a barrier's wait for in-flight migrations.
	settleTimeout = 30 * time.Second
)

// ImbalanceConfig describes one run of the imbalanced chare array: every
// element iterates by messaging itself, sleeping HeavyCost per iteration
// when heavy and LightCost otherwise. LB barriers — every element at the
// same iteration — fall at iteration Warmup and then every Every iterations
// (never again when Every is zero) short of Total.
type ImbalanceConfig struct {
	Nodes, Workers, Elems int
	Warmup, Every, Total  int
	// Heavy says whether element idx is heavy in a phase; phase counts
	// the barriers passed.
	Heavy     func(idx, phase int) bool
	HeavyCost time.Duration
	Transport string // transport spec; "" is the default in-process network
	// LB configures the attached balancer (meters always run); naming a
	// Strategy runs it, centralized, at each barrier.
	LB lb.Config
	// FT attaches fault tolerance: an initial checkpoint, and at every
	// barrier the migrations settle and the migrated layout is
	// checkpointed before the elements resume.
	FT          bool
	FlowControl *flowctl.Config
	Aggregation *aggregate.Config
	Faults      Faults
	Timeout     time.Duration // watchdog (default 120 s)
}

// Imbalance runs the workload. With Faults.Kill set the deaths land right
// after the first LB pass, while element blobs are on the wire; recovery
// must roll back, replay (with a fresh LB pass over the survivors) and end
// with exactly one live copy of every element — States equal to Exact's.
func Imbalance(cfg ImbalanceConfig) (Result, error) {
	h, err := newHarness(cfg.Transport, converse.Config{
		Nodes: cfg.Nodes, WorkersPerNode: cfg.Workers, Mode: converse.ModeSMP,
		FlowControl: cfg.FlowControl, Aggregation: cfg.Aggregation,
	}, cfg.Faults)
	if err != nil {
		return Result{}, err
	}
	if cfg.FT {
		h.mgr = ft.New(h.rt, h.detector(ft.Config{
			HeartbeatInterval: 3 * time.Millisecond,
			SuspectAfter:      90 * time.Millisecond,
			ProbeTimeout:      150 * time.Millisecond,
		}))
	}
	lbm := lb.Attach(h.rt, cfg.LB)

	var eWork int
	var arrived, done, gen, phaseStart, phase atomic.Int64
	a := h.rt.NewArray("imbalance", cfg.Elems, func(int) charm.Element { return &Elem{} })
	resume := func(pe *converse.PE) {
		if err := a.Broadcast(pe, eWork, nil, 8); err != nil {
			h.fail(fmt.Errorf("resume broadcast: %w", err))
		}
	}
	// barrier runs on the last element to arrive: balance, fire the fault
	// schedule, and resume — under ft only after the in-flight blobs have
	// settled and the migrated layout is checkpointed. That wait runs off
	// the scheduler (blocking a worker PE in SettleMigrations would
	// deadlock against blob installs destined for it), and the generation
	// stamp voids the continuation when a recovery restarts the run
	// underneath it: the restart hook re-drives everything itself.
	barrier := func(pe *converse.PE) {
		if cfg.LB.Strategy != nil {
			lbm.RunCentral(pe)
		}
		phaseStart.CompareAndSwap(0, time.Now().UnixNano())
		h.fire()
		if h.mgr == nil {
			resume(pe)
			return
		}
		g := gen.Load()
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			err := lbm.SettleMigrations(settleTimeout)
			if gen.Load() != g {
				return
			}
			if err == nil {
				err = h.checkpoint(pe, func(pe *converse.PE) {
					if gen.Load() == g {
						resume(pe)
					}
				})
			}
			if err != nil && gen.Load() == g {
				h.fail(fmt.Errorf("barrier checkpoint: %w", err))
			}
		}()
	}
	// phaseOf counts the barriers an element with it iterations done has
	// passed; a barrier sits wherever the count steps.
	phaseOf := func(it int) int {
		switch {
		case it < cfg.Warmup:
			return 0
		case cfg.Every == 0:
			return 1
		}
		return 1 + (it-cfg.Warmup)/cfg.Every
	}
	eWork = a.Entry(func(pe *converse.PE, elem charm.Element, idx int, _ any) {
		e := elem.(*Elem)
		it := int(e.Iter)
		if it >= cfg.Total {
			return // a replayed resume reached an element that already finished
		}
		if cfg.Heavy(idx, phaseOf(it)) {
			time.Sleep(cfg.HeavyCost)
		} else {
			time.Sleep(LightCost)
		}
		e.Step(idx)
		it++
		switch {
		case it >= cfg.Total:
			if done.Add(1) == int64(cfg.Elems) {
				phase.Store(time.Now().UnixNano() - phaseStart.Load())
				h.rt.Shutdown()
			}
		case phaseOf(it) != phaseOf(it-1):
			if arrived.Add(1) == int64(cfg.Elems) {
				arrived.Store(0)
				barrier(pe)
			}
		default:
			if err := a.Send(pe, idx, eWork, nil, 8); err != nil {
				h.fail(fmt.Errorf("send to element %d: %w", idx, err))
			}
		}
	})
	if h.mgr != nil {
		h.mgr.Protect(a)
		h.mgr.SetAppState(
			func() []byte { return nil },
			func(pe *converse.PE, _ []byte) {
				arrived.Store(0)
				done.Store(0)
				gen.Add(1)
				h.restarted()
				resume(pe)
			})
	}
	lbm.Manage(a, -1)

	res, err := h.run(cfg.Timeout, func() {
		h.rt.Run(func(pe *converse.PE) {
			if h.mgr == nil {
				resume(pe)
			} else if err := h.checkpoint(pe, resume); err != nil {
				h.fail(fmt.Errorf("initial checkpoint: %w", err))
			}
		})
	})
	res.Moves = lbm.Moves()
	res.Phase = time.Duration(phase.Load())
	res.States = make([][2]uint64, cfg.Elems)
	for idx := range res.States {
		// An element a failed run left in transit has no live copy.
		if e, ok := a.Element(idx).(*Elem); ok {
			res.States[idx] = [2]uint64{e.Iter, e.Sum}
		}
	}
	return res, err
}
