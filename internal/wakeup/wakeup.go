// Package wakeup simulates the Blue Gene/Q wakeup unit.
//
// On BG/Q a hardware thread can execute the PowerPC wait instruction and
// stop consuming core resources (pipeline slots, load/store ports). The
// per-core wakeup unit can be programmed to watch a range of memory
// addresses and network events (packet arrivals); when a watched event
// fires it delivers a low-overhead interrupt that resumes the waiting
// thread. PAMI communication threads use this to sleep when idle and wake
// instantly on new work (paper §II, §III-C).
//
// Here a "hardware thread" is a goroutine; Wait parks it on a condition
// variable and watched events signal it. The semantics preserved are the
// ones the runtime depends on: (1) a thread in Wait consumes no CPU,
// (2) an event arriving before Wait is not lost (the unit latches), and
// (3) any of several watch sources can wake the thread. Gate and Park
// carry the model to every flow-control park (a sender out of credits).
package wakeup

import (
	"sync"
	"sync/atomic"
	"time"

	"blueq/internal/obs"
)

// Observability instrumentation (internal/obs), guarded by obs.On(). The
// spurious/productive split is the signal the paper's comm-thread design
// cares about: a spurious wakeup is a resumed wait that finds no latched
// event (condition-variable wakeups without work), a productive one
// resumes with work pending. Shard keys are per-unit ids, which map onto
// the PEs and comm threads owning the units.
var (
	mSignal     = obs.NewCounter("wakeup", "signal_total", 0)
	mProductive = obs.NewCounter("wakeup", "productive_wake_total", 0)
	mSpurious   = obs.NewCounter("wakeup", "spurious_wake_total", 0)
)

// unitSeq hands each unit a distinct metric shard key.
var unitSeq atomic.Uint64

// Unit is one wakeup unit, servicing one waiting thread (as on hardware,
// where each hardware thread has its own WAC registers).
type Unit struct {
	mu      sync.Mutex
	cond    *sync.Cond
	latched bool
	waiting bool
	wakes   uint64
	closed  bool
	id      int // metric shard key
}

// NewUnit returns an armed wakeup unit with no pending events.
func NewUnit() *Unit {
	u := &Unit{id: int(unitSeq.Add(1) - 1)}
	u.cond = sync.NewCond(&u.mu)
	return u
}

// Signal delivers a wakeup event: a watched store, a packet arrival, or a
// posted work item. If the owning thread is in Wait it resumes; otherwise
// the event is latched so the next Wait returns immediately. Safe for
// concurrent use.
func (u *Unit) Signal() {
	u.mu.Lock()
	u.latched = true
	u.mu.Unlock()
	u.cond.Signal()
	if obs.On() {
		mSignal.Inc(u.id)
	}
}

// Wait blocks until an event has been signalled since the last Wait
// returned, consuming no CPU while blocked — the wait instruction. It
// returns immediately if an event is already latched. It returns false if
// the unit has been closed.
func (u *Unit) Wait() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	for !u.latched && !u.closed {
		u.waiting = true
		u.cond.Wait()
		u.waiting = false
		if obs.On() && !u.latched && !u.closed {
			mSpurious.Inc(u.id)
		}
	}
	if u.closed && !u.latched {
		return false
	}
	u.latched = false
	u.wakes++
	if obs.On() {
		mProductive.Inc(u.id)
	}
	return true
}

// Close releases any waiter and makes all future Waits return false.
// Used for orderly shutdown of communication threads.
func (u *Unit) Close() {
	u.mu.Lock()
	u.closed = true
	u.mu.Unlock()
	u.cond.Broadcast()
}

// Wakes returns the number of times Wait has returned true; tests use it to
// verify that idle comm threads actually sleep rather than spin.
func (u *Unit) Wakes() uint64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.wakes
}

// Waiting reports whether the owner thread is currently parked in Wait.
func (u *Unit) Waiting() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.waiting
}

// Gate is a watched store, the address a parked thread programs into its
// wakeup unit: whoever may have made a waiter's condition true opens it.
// A waiter arms the gate before each test of its condition, and the first
// Open after that signals every watching unit and disarms it, so a store
// that runs on and on past the waiter's condition (every credit return
// after the resume point) signals once. Unarmed, Open is one atomic load.
// The zero Gate is ready to use.
type Gate struct {
	armed atomic.Bool
	mu    sync.Mutex
	units map[*Unit]bool
}

// Waiting reports whether a parked thread waits for the gate to open.
func (g *Gate) Waiting() bool { return g.armed.Load() }

// Open signals every watching unit if the gate is armed. Call it after the
// store: a waiter arms before it tests its condition, so either the test
// sees the store or Open sees the arm.
func (g *Gate) Open() {
	if !g.armed.Load() || !g.armed.Swap(false) {
		return
	}
	g.mu.Lock()
	for u := range g.units {
		u.Signal()
	}
	g.mu.Unlock()
}

func (g *Gate) watch(u *Unit, on bool) {
	g.mu.Lock()
	if g.units == nil {
		g.units = make(map[*Unit]bool)
	}
	if on {
		g.units[u] = true
		g.armed.Store(true)
	} else if delete(g.units, u); len(g.units) == 0 {
		g.armed.Store(false)
	}
	g.mu.Unlock()
}

// Park is the one bounded wait behind every flow-control blocking point.
// The caller sleeps until try succeeds, on a unit of its own watched by
// every gate in watch and by a timer at the maxBlock deadline; progress,
// if non-nil, runs before every try, so after every wake. It returns
// false once maxBlock elapses without success (the caller proceeds on
// overdraft). The unit is never a PE's or comm thread's: parks nest and
// run on threads that own none, and two waiters on one unit would eat
// each other's wakeups.
func Park(try func() bool, progress func(), maxBlock time.Duration, watch ...*Gate) bool {
	if try() {
		return true
	}
	start := time.Now()
	var u *Unit
	for {
		if progress != nil {
			progress()
		}
		if try() {
			return true
		}
		if time.Since(start) >= maxBlock {
			return false
		}
		if u == nil { // watch and arm; the next try closes the race with an Open
			u = NewUnit()
			for _, g := range watch {
				g.watch(u, true)
				defer g.watch(u, false)
			}
			deadline := time.AfterFunc(maxBlock-time.Since(start), u.Signal)
			defer deadline.Stop()
			continue
		}
		u.Wait()
		for _, g := range watch {
			g.armed.Store(true) // re-arm before the next try
		}
	}
}
