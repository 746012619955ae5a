package charm

import (
	"fmt"

	"blueq/internal/obs"
)

// Fault-tolerance support: the pack/unpack contract chare elements opt
// into, and the two runtime-level primitives the recovery protocol
// (internal/ft) is built from. The design follows Charm++'s double
// in-memory checkpointing (Zheng et al.): elements serialize themselves at
// coordinated checkpoints, and after a fail-stop the runtime rolls every
// element back and re-homes the dead PE's elements onto survivors using
// the same home-table machinery the load balancer migrates through.

// Checkpointable is implemented by array elements that can serialize their
// state for in-memory checkpointing (the PUP contract of Charm++).
type Checkpointable interface {
	// PackCheckpoint returns a fresh byte slice encoding the element's
	// durable state. The slice is retained by checkpoint stores and must
	// not alias mutable element memory.
	PackCheckpoint() []byte
	// UnpackCheckpoint restores the element from an encoding produced by
	// PackCheckpoint on an element with the same index. Transient state
	// (in-flight counters, scratch buffers) resets to post-construction
	// values. The blob must be treated as read-only.
	UnpackCheckpoint(data []byte)
}

// Epoch returns the current recovery generation (zero until a failure).
func (rt *Runtime) Epoch() uint32 { return rt.epoch.Load() }

// OnRecovery registers a hook invoked at the start of every recovery
// rollback, after the epoch bump has fenced off in-flight messages.
// Layers that track those messages (the load balancer's outstanding
// migrate commands) reset here. Register before Run.
func (rt *Runtime) OnRecovery(fn func()) {
	rt.mu.Lock()
	rt.onRecovery = append(rt.onRecovery, fn)
	rt.mu.Unlock()
}

// BeginRecovery starts a rollback: it bumps the message epoch so every
// message stamped before this call is dropped at dispatch, zeroes the
// quiescence counters (in-flight pre-failure messages will never execute,
// so the old counts can no longer balance), and clears partially
// accumulated reduction state. The caller must have established that no
// surviving PE is executing or holding undelivered current-epoch messages
// — internal/ft does so by halting the dead node and waiting for survivor
// quiescence. Returns the new epoch.
func (rt *Runtime) BeginRecovery() uint32 {
	e := rt.epoch.Add(1)
	rt.sent.Store(0)
	rt.done.Store(0)
	rt.migrating.Store(0)
	rt.mu.Lock()
	arrays := append([]*Array(nil), rt.arrays...)
	hooks := append([]func(){}, rt.onRecovery...)
	rt.mu.Unlock()
	for _, hook := range hooks {
		hook()
	}
	for _, a := range arrays {
		a.resetReductions()
		// Messages parked for in-transit elements wait on migration blobs
		// the epoch bump just fenced off; RestoreElement reinstates every
		// element from the checkpoint, so the parked copies are stale.
		a.resetMigrationState()
	}
	return e
}

// resetReductions discards in-flight reduction generations, the root's
// totals and every PE's open partials alike: contributions folded in
// before the failure came from pre-rollback element states.
func (a *Array) resetReductions() {
	st := &a.red
	st.mu.Lock()
	clear(st.pending)
	st.mu.Unlock()
	for pe := range a.rt.reductions {
		s := &a.rt.reductions[pe]
		s.mu.Lock()
		kept := s.open[:0]
		for _, p := range s.open {
			if p.a != a {
				kept = append(kept, p)
			}
		}
		clear(s.open[len(kept):])
		s.open = kept
		s.nOpen.Store(int32(len(kept)))
		s.mu.Unlock()
	}
}

// RestoreElement rebuilds element idx from a checkpoint blob and homes it
// on PE newHome: the factory constructs a fresh element, UnpackCheckpoint
// loads the saved state, and the home table re-registers the index. The
// element value is published before the home entry under the same lock
// HomePE readers take, so no message can route to an element that is not
// yet in place. It must run while the array is quiescent.
func (a *Array) RestoreElement(idx, newHome int, blob []byte) error {
	if idx < 0 || idx >= a.n {
		return fmt.Errorf("charm: array %q restore index %d out of range [0,%d)", a.name, idx, a.n)
	}
	if newHome < 0 || newHome >= a.rt.machine.NumPEs() {
		return fmt.Errorf("charm: array %q restore home PE %d out of range", a.name, newHome)
	}
	el := a.factory(idx)
	c, ok := el.(Checkpointable)
	if !ok {
		return fmt.Errorf("charm: array %q element %d (%T) is not Checkpointable", a.name, idx, el)
	}
	c.UnpackCheckpoint(blob)
	a.homeMu.Lock()
	a.elems[idx] = el
	a.home[idx] = int32(newHome)
	a.homeGen++
	a.transit[idx] = false
	a.homeMu.Unlock()
	if obs.On() {
		mRestored.Inc(newHome)
	}
	return nil
}
