package ft

import (
	"errors"
	"fmt"
	"log"
	"time"

	"blueq/internal/converse"
	"blueq/internal/obs"
)

// Recovery: the sequence that turns confirmed failures back into a
// running computation. The monitor goroutine confirms deaths and
// enqueues them; the recovery goroutine drains the queue, so detection
// never stalls behind a recovery in progress and cascading failures —
// including a kill landing mid-recovery or mid-checkpoint — fold into the
// running pass instead of hanging it.
//
// One recovery pass, over the cumulative dead set:
//
//  1. Fail-stop every dead node for real: silence its transport endpoints
//     and halt its schedulers, then wait for its last PE to exit.
//  2. Flush aggregation buffers and wait for survivor quiescence.
//  3. Abandon reliability channels to every dead node (DropPeer on every
//     survivor, including channels to a node that died mid-recovery) and
//     abort any checkpoint round the failure interrupted.
//  4. Bump the runtime epoch (charm.BeginRecovery): every message stamped
//     before the failure is now stale and drops at dispatch.
//  5. Roll back every protected element to the committed epoch from a
//     surviving, checksum-verified copy; elements homed on dead nodes
//     re-home onto the holder of their surviving copy.
//  6. Take a fresh checkpoint over the surviving nodes, started on the
//     leader PE — the ring re-buddies around the dead, so the rolled-back
//     state is double-copied again before the application resumes — and
//     wait for it to commit.
//  7. Hand the application blob to the restart hook, run on the leader
//     PE's scheduler.
//
// After steps 2, 5 and 6 the pass checks whether the dead set grew (the
// detector kept running); if so it restarts from step 1 with the larger
// set — every step is idempotent. A failure that leaves some protected
// element with no surviving verified copy, or that lands before any epoch
// committed, is reported through OnUnrecoverable instead of panicking or
// hanging: the availability contract is "recover or say why not".

// enqueueDead hands confirmed failures to the recovery goroutine.
func (mgr *Manager) enqueueDead(dead []int) {
	mgr.recMu.Lock()
	mgr.recPending = append(mgr.recPending, dead...)
	mgr.recMu.Unlock()
	select {
	case mgr.recKick <- struct{}{}:
	default:
	}
}

// takePending drains the queue of confirmed-but-unhandled failures.
func (mgr *Manager) takePending() []int {
	mgr.recMu.Lock()
	defer mgr.recMu.Unlock()
	dead := mgr.recPending
	mgr.recPending = nil
	return dead
}

func containsRank(set []int, r int) bool {
	for _, d := range set {
		if d == r {
			return true
		}
	}
	return false
}

// newDeathsPending reports whether a failure was confirmed that the
// current pass is not already handling. Confirmations of nodes the pass
// folded in (or an earlier pass fully handled) are stale — they must not
// abort or restart a pass.
func (mgr *Manager) newDeathsPending(dead []int) bool {
	mgr.recMu.Lock()
	defer mgr.recMu.Unlock()
	for _, d := range mgr.recPending {
		if !containsRank(dead, d) && !mgr.dropped[d].Load() {
			return true
		}
	}
	return false
}

// foldUnhandledKills grows the dead set with every node that is fail-
// stopped but not yet handled by any pass: a kill landing mid-recovery
// (OnRecoveryStart cascades, a buddy dying during restore) is folded into
// the running pass immediately instead of waiting out its own detection.
func (mgr *Manager) foldUnhandledKills(dead []int) []int {
	for r := 0; r < mgr.m.NumNodes(); r++ {
		if mgr.m.NodeDead(r) && !mgr.dropped[r].Load() && !containsRank(dead, r) {
			dead = append(dead, r)
		}
	}
	return dead
}

// recoveryLoop serializes recovery passes.
func (mgr *Manager) recoveryLoop() {
	defer mgr.wg.Done()
	for {
		select {
		case <-mgr.stop:
			return
		case <-mgr.recKick:
		}
		mgr.runRecovery()
	}
}

// runRecovery collects the queued failures and runs passes until the dead
// set stops growing, then counts one completed recovery.
func (mgr *Manager) runRecovery() {
	if mgr.unrecov.Load() {
		return
	}
	var dead []int
	for _, d := range mgr.takePending() {
		if !mgr.dropped[d].Load() {
			dead = append(dead, d)
		}
	}
	if len(dead) == 0 {
		return // every queued confirmation was handled by an earlier pass
	}
	start := time.Now()
	var rolled bool
	for {
		dead = mgr.foldUnhandledKills(dead)
		if hook := mgr.cfg.OnRecoveryStart; hook != nil {
			hook(append([]int(nil), dead...))
		}
		var ok bool
		rolled, ok = mgr.recoverPass(dead)
		if !ok {
			return // shutdown or unrecoverable: reported, not retried
		}
		grewAny := false
		for _, d := range mgr.takePending() {
			if !containsRank(dead, d) && !mgr.dropped[d].Load() {
				// The detector confirmed more deaths mid-pass: restart over
				// the cumulative set. Every step of the pass is idempotent.
				dead = append(dead, d)
				grewAny = true
			}
		}
		if grewAny {
			continue
		}
		// A kill that landed mid-pass (an OnRecoveryStart cascade) may not
		// be confirmed yet; fold it in now rather than waiting out its
		// detection with its reliability channels still armed.
		if folded := mgr.foldUnhandledKills(dead); len(folded) > len(dead) {
			dead = folded
			continue
		}
		break
	}
	if !rolled {
		return // nothing was protected and no epoch existed: detection only
	}
	mgr.recoveries.Add(1)
	if obs.On() {
		for _, d := range dead {
			obsRecovery.Inc(d)
			obsRecoveryNS.Observe(d, time.Since(start).Nanoseconds())
		}
	}
	// The restart hook sends from the PE it is handed, and only a PE's
	// scheduler may draw from its envelope pool: post the hook to the
	// leader rather than run it here.
	epoch := mgr.committed.Load()
	if _, restore := mgr.appHooks(); restore != nil && epoch > 0 {
		app := mgr.findApp(epoch)
		mgr.m.PE(mgr.leaderPE()).Post(func(pe *converse.PE) { restore(pe, app) })
	}
}

// recoverPass runs one attempt over the cumulative dead set. rolled
// reports whether protected state was actually rolled back (false for the
// detection-only case: no epoch, nothing protected). ok=false means the
// pass must not be retried (shutdown raced it, or the failure is
// unrecoverable). A pass interrupted by newly confirmed deaths returns
// early with ok=true, leaving them queued — the caller folds them in and
// restarts; every step here is idempotent.
func (mgr *Manager) recoverPass(dead []int) (rolled, ok bool) {
	for _, d := range dead {
		mgr.m.KillNode(d)
		select {
		case <-mgr.m.NodeHalted(d):
		case <-mgr.stop:
			return false, false
		}
	}
	// Survivors may hold pre-failure messages in aggregation buffers, which
	// the quiescence probe cannot see (not enqueued, not in the transport).
	// Flush them: they deliver, stamp-check against the old epoch, and
	// either execute now (pre-recovery work finishing) or drop as stale
	// after BeginRecovery — exactly like any other in-flight message.
	mgr.m.FlushAggregation()
	if !mgr.waitSurvivorQuiescence(dead) {
		return false, false // shutdown raced the recovery
	}
	if mgr.newDeathsPending(dead) {
		return false, true
	}

	client := mgr.m.PAMIClient()
	for r := 0; r < mgr.m.NumNodes(); r++ {
		if mgr.m.NodeDead(r) {
			continue
		}
		for _, d := range dead {
			client.Node(r).DropPeer(d)
		}
	}
	for _, d := range dead {
		mgr.dropped[d].Store(true)
	}
	mgr.abortRound()

	epoch := mgr.committed.Load()
	if epoch == 0 {
		// Nothing to roll back to. With protected state registered this is
		// a hard loss — the computation's data died with the nodes; without
		// any, detection alone was the point and there is nothing to do.
		if len(mgr.protectedArrays()) > 0 {
			mgr.reportUnrecoverable(fmt.Errorf(
				"ft: nodes %v failed before any checkpoint committed; protected state is lost", dead))
			return false, false
		}
		return false, true
	}

	mgr.recovering.Store(true)
	defer mgr.recovering.Store(false)
	mgr.rt.BeginRecovery()

	restored := 0
	for _, a := range mgr.protectedArrays() {
		for idx := 0; idx < a.Len(); idx++ {
			blob, holder := mgr.findCopy(elemKey{a.Name(), idx}, epoch)
			if blob == nil {
				mgr.reportUnrecoverable(fmt.Errorf(
					"ft: no surviving verified copy of %s[%d] at epoch %d (dead: %v)",
					a.Name(), idx, epoch, dead))
				return false, false
			}
			home := a.HomePE(idx)
			if mgr.m.NodeDead(mgr.nodeOf(home)) {
				home = holder * mgr.wpn
			}
			if err := a.RestoreElement(idx, home, blob); err != nil {
				mgr.reportUnrecoverable(fmt.Errorf("ft: restore %s[%d]: %v", a.Name(), idx, err))
				return false, false
			}
			restored++
		}
	}
	mgr.restored.Add(int64(restored))
	if obs.On() {
		for _, d := range dead {
			obsRestored.Add(d, int64(restored))
		}
	}
	if mgr.newDeathsPending(dead) {
		return false, true
	}

	// Re-protect before resuming: the ring has re-buddied around the dead
	// nodes, so take a fresh checkpoint of the rolled-back state and wait
	// for it to commit. Without this, a second failure hitting the old
	// epoch's surviving copies would be unrecoverable even though the
	// first recovery "succeeded". The app blob is carried over from the
	// restored epoch — the application has not restarted yet, so packing
	// fresh app state here would snapshot a cursor ahead of the elements.
	// The round sends from the leader PE, so it starts on that PE's
	// scheduler. If a node dies before it does, a restored element is
	// homed on the dead node and the round refuses with ErrRecovering: the
	// caller folds that death into a fresh pass.
	app := mgr.findApp(epoch)
	started := make(chan error, 1)
	mgr.m.PE(mgr.leaderPE()).Post(func(pe *converse.PE) { started <- mgr.checkpointWithApp(pe, app, nil) })
	deadline := time.Now().Add(10 * time.Second)
	for mgr.committed.Load() <= epoch {
		select {
		case <-mgr.stop:
			return false, false
		case err := <-started:
			if errors.Is(err, ErrRecovering) {
				return false, true
			}
			if err != nil {
				mgr.reportUnrecoverable(fmt.Errorf("ft: post-recovery checkpoint: %v", err))
				return false, false
			}
		case <-time.After(time.Millisecond):
		}
		if mgr.newDeathsPending(dead) {
			return false, true
		}
		if time.Now().After(deadline) {
			mgr.reportUnrecoverable(fmt.Errorf(
				"ft: post-recovery checkpoint for epoch %d never committed", epoch+1))
			return false, false
		}
	}
	return true, true
}

// reportUnrecoverable records the terminal error and invokes the
// OnUnrecoverable hook on its own goroutine — the default hook shuts the
// machine down, which in turn stops this manager, so it must not run on
// the recovery goroutine that Stop waits for. Fires at most once.
func (mgr *Manager) reportUnrecoverable(err error) {
	if mgr.stopped.Load() {
		return // shutdown raced the pass; not a verdict on the computation
	}
	if !mgr.unrecov.CompareAndSwap(false, true) {
		return
	}
	mgr.unrecovErr.Store(err)
	mgr.unrecoverables.Add(1)
	if obs.On() {
		obsUnrecoverable.Inc(0)
	}
	hook := mgr.cfg.OnUnrecoverable
	if hook == nil {
		hook = func(err error) {
			log.Printf("%v; shutting down", err)
			mgr.m.Shutdown()
		}
	}
	go hook(err)
}

// waitSurvivorQuiescence blocks until no live PE is executing or holding
// work and the transport has nothing in flight, stable across several
// consecutive samples. Returns false if the manager stops first; after
// the bounded fallback it proceeds anyway (a wedged survivor is better
// recovered optimistically than never). A death confirmed mid-wait also
// ends it — the caller restarts the pass over the larger dead set.
func (mgr *Manager) waitSurvivorQuiescence(dead []int) bool {
	const (
		poll     = 2 * time.Millisecond
		stableN  = 5
		deadline = 2 * time.Second
	)
	type sample struct{ enq, exe int64 }
	var prev []sample
	stable := 0
	limit := time.Now().Add(deadline)
	for {
		select {
		case <-mgr.stop:
			return false
		case <-time.After(poll):
		}
		if mgr.newDeathsPending(dead) {
			return true // caller folds the new deaths into a fresh pass
		}
		cur := make([]sample, 0, mgr.m.NumPEs())
		quiet := !mgr.m.Transport().Pending()
		for id := 0; id < mgr.m.NumPEs(); id++ {
			if mgr.m.NodeDead(mgr.nodeOf(id)) {
				continue
			}
			pe := mgr.m.PE(id)
			s := sample{pe.Enqueued(), pe.Executed()}
			if s.enq != s.exe {
				quiet = false
			}
			cur = append(cur, s)
		}
		if quiet && prev != nil && len(prev) == len(cur) {
			same := true
			for i := range cur {
				if cur[i] != prev[i] {
					same = false
					break
				}
			}
			if same {
				stable++
				if stable >= stableN {
					return true
				}
			} else {
				stable = 0
			}
		} else {
			stable = 0
		}
		prev = cur
		if time.Now().After(limit) {
			return !mgr.stopped.Load()
		}
	}
}
