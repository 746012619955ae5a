package flowctl

import (
	"sync/atomic"

	"blueq/internal/obs"
)

// Window is one directed (src,dst) credit window. The fast path is a
// single atomic add when credits are available — the same predicated-
// atomic budget as an obs counter — so an uncontended sender pays almost
// nothing. When the window is exhausted the sender parks: it spins
// briefly, runs the caller-supplied progress closure (advancing PAMI
// contexts so the messages holding credits arrive and execute), and sleeps with
// exponential backoff, up to MaxBlock before proceeding on overdraft.
type Window struct {
	ctl      *Controller
	inflight atomic.Int64
	dead     atomic.Bool
}

// Acquire takes one credit, blocking (park-and-retry) while the window is
// exhausted. progress, if non-nil, runs between retries and should advance
// whatever machinery delivers this window's credit returns. Returns false
// only when the credit was taken on overdraft after MaxBlock — the caller
// proceeds either way; the return value is a degradation signal, not an
// error.
func (w *Window) Acquire(progress func()) bool {
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
	w.inflight.Add(-1)
	return w.acquireSlow(progress)
}

// acquireSlow is the parked path, kept out of the inline fast path. It
// resumes only once at most half the window is in flight (Clark's
// silly-window avoidance, RFC 813), not at every returned credit.
func (w *Window) acquireSlow(progress func()) bool {
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

	resumed := ParkUntil(func() bool {
		if w.dead.Load() {
			return true
		}
		limit := w.ctl.effectiveWindow()
		if n := w.inflight.Add(1); n-1 <= limit-(limit+1)/2 { // a 1-credit window: 0
			if obs.On() {
				mCreditsAvail.Set(limit - n)
			}
			return true
		}
		w.inflight.Add(-1)
		return false
	}, progress, w.ctl.cfg.MaxBlock)
	if !resumed {
		// Overdraft: liveness beats the bound. The credit is still
		// accounted, so the window re-tightens as acks drain.
		w.inflight.Add(1)
		mOverdraft.Inc(0)
	}
	return resumed
}

// Release returns n credits (the destination PE has executed the messages
// that held them).
func (w *Window) Release(n int) {
	if n <= 0 || w.dead.Load() {
		return
	}
	w.inflight.Add(int64(-n))
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

// markDead releases all credits and lets future Acquires through without
// accounting. Transient racing Releases may drive inflight negative; that
// only widens the window and the dead flag makes it moot.
func (w *Window) markDead() {
	w.dead.Store(true)
	w.inflight.Store(0)
}
