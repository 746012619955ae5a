package mempool

import (
	"sync/atomic"

	"blueq/internal/lockless"
	"blueq/internal/obs"
)

// EnvPool is the §III-B message-envelope allocator: one typed free list
// per owning PE, with lockless remote free. An envelope is always
// allocated from — and recycled to — the pool of the PE that created it;
// when the last reference is dropped on a *different* PE, the free is a
// single bounded load-increment enqueue onto the owner's L2-atomic ring
// (no lock, no CAS loop on the fast path), exactly the remote-free the
// paper uses to keep fine-grained message traffic off the heap.
//
// Ownership discipline mirrors the per-thread pools of §III-B:
//
//   - Get(owner) is single-consumer: only the owning PE's scheduler
//     goroutine may call it (the ring dequeue is not safe for concurrent
//     consumers). A miss falls back to the Go heap via new(T).
//   - Put(tid, owner, v) may be called from any goroutine; tid is the
//     caller's PE id (or -1 for a non-PE goroutine) and only attributes
//     the free as local vs remote in the stats.
//   - DropOwner(owner) quarantines a dead PE's pool during fault
//     recovery: subsequent frees of its envelopes fall through to the
//     garbage collector instead of accumulating in a pool nobody will
//     ever Get from again. It drains the pool, so it is single-consumer
//     like Get.
//
// The per-owner queue is the §III-A lockless.L2Queue, but a pool above
// its spill threshold drops frees to the GC instead of growing the mutex
// overflow — an envelope pool exists to bound steady state reuse, not to
// cache unbounded bursts.
type EnvPool[T any] struct {
	pools     []*lockless.L2Queue[*T]
	dead      []atomic.Bool
	threshold int
	stats     EnvStats
}

// DefaultEnvPoolThreshold is the per-owner pool depth beyond which frees
// spill to the garbage collector, matching PoolAllocator's default.
const DefaultEnvPoolThreshold = 512

// EnvStats counts envelope pool traffic for one EnvPool instance. The
// process-wide obs registry sees the same events on the mempool/env_*
// counters when obs is enabled.
type EnvStats struct {
	Hits        atomic.Int64 // Get served from the owner's pool
	Misses      atomic.Int64 // Get fell back to the heap
	LocalFrees  atomic.Int64 // Put by the owning PE
	RemoteFrees atomic.Int64 // Put by a non-owning PE (lockless enqueue)
	HeapFrees   atomic.Int64 // Put dropped to the GC: pool at threshold
	DeadDrops   atomic.Int64 // Put dropped to the GC: owner was dropped
}

// NewEnvPool builds per-owner envelope pools for owners PEs. threshold 0
// selects DefaultEnvPoolThreshold; it bounds both the lockless ring size
// (rounded up to a power of two) and the depth beyond which frees go to
// the GC.
func NewEnvPool[T any](owners, threshold int) *EnvPool[T] {
	if threshold <= 0 {
		threshold = DefaultEnvPoolThreshold
	}
	p := &EnvPool[T]{
		pools:     make([]*lockless.L2Queue[*T], owners),
		dead:      make([]atomic.Bool, owners),
		threshold: threshold,
	}
	for i := range p.pools {
		p.pools[i] = lockless.NewL2QueueOf[*T](threshold)
	}
	return p
}

// Get returns a recycled envelope from owner's pool, or a fresh heap
// allocation on a miss. Single consumer: only the owning PE's scheduler
// goroutine may Get from its pool.
func (p *EnvPool[T]) Get(owner int) *T {
	if v, ok := p.pools[owner].Dequeue(); ok {
		p.stats.Hits.Add(1)
		if obs.On() {
			mEnvHit.Inc(owner)
		}
		return v
	}
	p.stats.Misses.Add(1)
	if obs.On() {
		mEnvMiss.Inc(owner)
	}
	return new(T)
}

// Put recycles an envelope to its owner's pool. tid is the calling PE
// (-1 from non-PE goroutines) and classifies the free as local or
// remote; a remote free is the paper's lockless enqueue onto the owner's
// ring. Frees beyond the spill threshold, or to an owner removed with
// DropOwner, fall through to the garbage collector.
func (p *EnvPool[T]) Put(tid, owner int, v *T) {
	if owner < 0 || owner >= len(p.pools) || p.dead[owner].Load() {
		p.stats.DeadDrops.Add(1)
		if obs.On() {
			mEnvDeadDrop.Inc(shardFor(tid))
		}
		return
	}
	q := p.pools[owner]
	if q.Len() >= p.threshold {
		p.stats.HeapFrees.Add(1)
		if obs.On() {
			mEnvHeapFree.Inc(shardFor(tid))
		}
		return
	}
	q.Enqueue(v)
	if tid == owner {
		p.stats.LocalFrees.Add(1)
		if obs.On() {
			mEnvLocalFree.Inc(owner)
		}
	} else {
		p.stats.RemoteFrees.Add(1)
		if obs.On() {
			mEnvRemoteFree.Inc(shardFor(tid))
		}
	}
}

// DropOwner quarantines owner's pool after its PE dies: the cached
// envelopes are released to the GC and later frees of envelopes it owned
// are dropped rather than pooled, so recovery leaks nothing into a pool
// that will never be drained. Safe to call concurrently with remote
// frees; a free racing the drop at worst parks one envelope in the
// drained queue, which the GC reclaims with the queue itself. The drain
// consumes the pool like Get does, so only owner's goroutine may call it,
// or any goroutine once the owner has stopped.
func (p *EnvPool[T]) DropOwner(owner int) {
	if owner < 0 || owner >= len(p.pools) {
		return
	}
	p.dead[owner].Store(true)
	for {
		if _, ok := p.pools[owner].Dequeue(); !ok {
			return
		}
		p.stats.DeadDrops.Add(1)
	}
}

// Len reports the current depth of owner's pool.
func (p *EnvPool[T]) Len(owner int) int { return p.pools[owner].Len() }

// Stats returns the instance-level counters.
func (p *EnvPool[T]) Stats() *EnvStats { return &p.stats }

func shardFor(tid int) int {
	if tid < 0 {
		return 0
	}
	return tid
}
