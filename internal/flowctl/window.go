package flowctl

import (
	"sync/atomic"

	"blueq/internal/obs"
	"blueq/internal/wakeup"
)

// Window is one directed (src,dst) credit window. The fast path is a
// single atomic add when credits are available — the same predicated-
// atomic budget as an obs counter — so an uncontended sender pays almost
// nothing. When the window is exhausted the sender parks until the credit
// return that reaches the resume point opens the window's gate, up to
// MaxBlock before proceeding on overdraft.
type Window struct {
	ctl      *Controller
	inflight atomic.Int64
	dead     atomic.Bool
	gate     wakeup.Gate
}

// Acquire takes one credit, parking while the window is exhausted.
// progress, if non-nil, runs while the sender is parked, after every wake
// (the window's gate or one in watch opening) among other times, and
// should advance whatever delivers the credit returns. Returns false only
// when the credit was taken on overdraft after MaxBlock — the caller
// proceeds either way; the return value is a degradation signal, not an
// error.
func (w *Window) Acquire(progress func(), watch ...*wakeup.Gate) bool {
	if w.dead.Load() {
		return true // transport discards traffic to dead peers; don't account
	}
	limit := w.ctl.effectiveWindow()
	if n := w.inflight.Add(1); n <= limit {
		if obs.On() {
			mCreditsAvail.Set(limit - n)
		}
		return true
	}
	w.Release(1) // the undo may be what reaches a racing park's resume point
	return w.acquireSlow(progress, watch)
}

// acquireSlow is the parked path, kept out of the inline fast path. It
// resumes only once at most half the window is in flight (Clark's
// silly-window avoidance, RFC 813), not at every returned credit.
func (w *Window) acquireSlow(progress func(), watch []*wakeup.Gate) bool {
	w.ctl.blocked.Add(1)
	w.ctl.blockedTotal.Add(1)
	mBlocked.Inc(0)
	if obs.On() {
		mState.Set(int64(w.ctl.State()))
	}
	defer func() {
		w.ctl.blocked.Add(-1)
		if obs.On() {
			mState.Set(int64(w.ctl.State()))
		}
	}()

	// Compare-and-swap, not add-and-undo: a parked sender's transient
	// overshoot could hide the resume point from the Release reaching it.
	resumed := wakeup.Park(func() bool {
		for !w.dead.Load() {
			n := w.inflight.Load()
			if n > w.ctl.resumeAt() {
				return false
			}
			if w.inflight.CompareAndSwap(n, n+1) {
				if obs.On() {
					mCreditsAvail.Set(w.ctl.effectiveWindow() - (n + 1))
				}
				return true
			}
		}
		return true
	}, progress, w.ctl.cfg.MaxBlock, append([]*wakeup.Gate{&w.gate}, watch...)...)
	if !resumed {
		// Overdraft: liveness beats the bound. The credit is still
		// accounted, so the window re-tightens as acks drain.
		w.inflight.Add(1)
		mOverdraft.Inc(0)
	}
	return resumed
}

// Release returns n credits (the destination PE has executed the messages
// that held them), opening the gate when that reaches the resume point:
// one atomic load when nobody is parked.
func (w *Window) Release(n int) {
	if n <= 0 || w.dead.Load() {
		return
	}
	if left := w.inflight.Add(int64(-n)); w.gate.Waiting() && left <= w.ctl.resumeAt() {
		w.gate.Open()
	}
}

// InFlight returns the number of credits currently held.
func (w *Window) InFlight() int64 { return w.inflight.Load() }

// Available returns the credits currently grantable (never negative).
func (w *Window) Available() int64 {
	a := w.ctl.effectiveWindow() - w.inflight.Load()
	if a < 0 {
		return 0
	}
	return a
}

// Dead reports whether the window's peer has been dropped.
func (w *Window) Dead() bool { return w.dead.Load() }

// markDead releases all credits, wakes the window's parked senders and
// lets future Acquires through without accounting. Transient racing
// Releases may drive inflight negative; the dead flag makes it moot.
func (w *Window) markDead() {
	w.dead.Store(true)
	w.inflight.Store(0)
	w.gate.Open()
}
