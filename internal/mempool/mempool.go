// Package mempool implements the two message-buffer allocators compared in
// the paper (§III-B, Fig. 6).
//
// ArenaAllocator models the GNU glibc arena allocator as deployed on BG/Q:
// malloc scans for an arena whose mutex it can take (preferring the thread's
// last arena), but free *must* lock the arena that owns the buffer. When
// many threads free buffers allocated by one sender thread they all contend
// on that sender's arena mutex — the bottleneck the paper observed.
//
// PoolAllocator is the paper's fix: each thread owns an L2-atomic queue of
// recycled buffers. Free performs a lockless enqueue onto the owner thread's
// pool regardless of which thread calls it; malloc performs a lockless
// dequeue from the calling thread's own pool, falling back to the heap.
// A threshold bounds each pool; beyond it buffers go back to the heap.
package mempool

import (
	"sync"
	"sync/atomic"

	"blueq/internal/lockless"
	"blueq/internal/obs"
)

// Buffer is a message buffer handed out by an allocator. Owner identifies
// the thread whose pool recycles it (pool allocator only).
type Buffer struct {
	Data  []byte
	Owner int
	arena *arena
}

// Allocator is the interface the Converse machine layer codes against, so
// the runtime can switch allocators for the Fig. 6 / Fig. 8 experiments.
type Allocator interface {
	// Alloc returns a buffer with at least size bytes, on behalf of thread
	// tid (0-based).
	Alloc(tid, size int) *Buffer
	// Free returns a buffer; may be called from any thread.
	Free(tid int, b *Buffer)
}

// Stats counts allocator events for tests and reports.
type Stats struct {
	HeapAllocs   atomic.Int64 // buffers obtained from the Go heap
	PoolHits     atomic.Int64 // lockless dequeues that produced a buffer
	PoolFrees    atomic.Int64 // lockless enqueues back to a pool
	HeapFrees    atomic.Int64 // frees that went to the heap (pool full)
	LockAcquires atomic.Int64 // arena mutex acquisitions
}

// ---------------------------------------------------------------------------
// Pool allocator (the paper's lockless scheme)

// DefaultPoolThreshold is the per-thread pool capacity in buffers; beyond it
// Free releases buffers to the heap, as described in §III-B.
const DefaultPoolThreshold = 512

// PoolAllocator implements the lockless per-thread buffer pools.
type PoolAllocator struct {
	pools     []*lockless.L2Queue[*Buffer]
	threshold int
	stats     *Stats

	// Pressure signaling (flow control): live tracks bytes currently
	// handed out to the application (allocated, not yet freed). When
	// watermarks are set, crossing soft raises the pressure level to 1
	// and crossing hard to 2; the flow-control layer shrinks granted
	// credit windows in response, so senders throttle *before* the
	// allocator is exhausted. Zero watermarks (the default) disable all
	// of it — the hot path then pays nothing beyond one predicated load.
	live       atomic.Int64
	soft, hard int64
	level      atomic.Int32
	onPressure atomic.Value // func(level int)
}

// NewPoolAllocator creates pools for nthreads threads. threshold <= 0
// selects DefaultPoolThreshold.
func NewPoolAllocator(nthreads, threshold int) *PoolAllocator {
	if threshold <= 0 {
		threshold = DefaultPoolThreshold
	}
	p := &PoolAllocator{
		pools:     make([]*lockless.L2Queue[*Buffer], nthreads),
		threshold: threshold,
		stats:     &Stats{},
	}
	for i := range p.pools {
		p.pools[i] = lockless.NewL2QueueOf[*Buffer](threshold)
	}
	return p
}

// SetWatermarks arms pressure signaling: live outstanding bytes crossing
// soft report level 1, crossing hard level 2, dropping back under both
// level 0. soft <= 0 disarms. Call before traffic flows.
func (p *PoolAllocator) SetWatermarks(soft, hard int64) {
	if hard < soft {
		hard = soft
	}
	p.soft, p.hard = soft, hard
}

// OnPressureChange installs a callback invoked (from whatever thread
// crossed the watermark) each time the pressure level changes. The
// flow-control controller hooks this to shrink granted windows.
func (p *PoolAllocator) OnPressureChange(fn func(level int)) { p.onPressure.Store(fn) }

// PressureLevel returns the current level: 0 below soft, 1 at soft, 2 at
// hard. Always 0 when watermarks are unset.
func (p *PoolAllocator) PressureLevel() int { return int(p.level.Load()) }

// LiveBytes returns the bytes currently handed out to the application.
func (p *PoolAllocator) LiveBytes() int64 { return p.live.Load() }

// trackAlloc and trackFree maintain the live count and fire level
// transitions. Disarmed (soft == 0) they cost one predicated branch.
func (p *PoolAllocator) trackAlloc(size int) {
	if p.soft == 0 {
		return
	}
	p.updateLevel(p.live.Add(int64(size)))
}

func (p *PoolAllocator) trackFree(size int) {
	if p.soft == 0 {
		return
	}
	p.updateLevel(p.live.Add(int64(-size)))
}

func (p *PoolAllocator) updateLevel(live int64) {
	var lvl int32
	switch {
	case live >= p.hard:
		lvl = 2
	case live >= p.soft:
		lvl = 1
	}
	old := p.level.Load()
	if lvl == old || !p.level.CompareAndSwap(old, lvl) {
		return // unchanged, or another thread just transitioned
	}
	if obs.On() {
		mPressure.Set(int64(lvl))
	}
	if fn, ok := p.onPressure.Load().(func(int)); ok && fn != nil {
		fn(int(lvl))
	}
}

// Alloc dequeues from the calling thread's pool; on miss it allocates from
// the heap and brands the buffer with the caller as owner.
func (p *PoolAllocator) Alloc(tid, size int) *Buffer {
	p.trackAlloc(size)
	if b, ok := p.pools[tid].Dequeue(); ok {
		if cap(b.Data) >= size {
			p.stats.PoolHits.Add(1)
			if obs.On() {
				mPoolHit.Inc(tid)
			}
			b.Data = b.Data[:size]
			return b
		}
		// Too small for this request; let the GC have it.
	}
	p.stats.HeapAllocs.Add(1)
	if obs.On() {
		mPoolMiss.Inc(tid)
	}
	return &Buffer{Data: make([]byte, size), Owner: tid}
}

// Free enqueues the buffer onto its owner's pool with a lockless enqueue —
// this is the operation that removes the arena-mutex contention. If the
// owner's pool is at its threshold the buffer is released to the heap.
func (p *PoolAllocator) Free(tid int, b *Buffer) {
	p.trackFree(len(b.Data))
	pool := p.pools[b.Owner]
	if pool.Len() >= p.threshold {
		p.stats.HeapFrees.Add(1)
		if obs.On() {
			mHeapFree.Inc(tid)
		}
		return // dropped; reclaimed by the garbage collector
	}
	p.stats.PoolFrees.Add(1)
	pool.Enqueue(b)
	if obs.On() {
		mPoolFree.Inc(tid)
		mPoolDepth.SetMax(int64(pool.Len()))
	}
}

// Stats returns the allocator's event counters.
func (p *PoolAllocator) Stats() *Stats { return p.stats }

// ---------------------------------------------------------------------------
// Arena allocator (glibc model — the baseline)

// arena is one glibc malloc arena: a mutex plus a free list.
type arena struct {
	mu   sync.Mutex
	free []*Buffer
	// busy marks the arena as in use by some thread's malloc, so other
	// mallocs skip it — glibc's arena-selection heuristic.
	busy atomic.Bool
}

// ArenaAllocator models glibc's arena allocator. Frees must lock the arena
// the buffer came from.
type ArenaAllocator struct {
	arenas []*arena
	// lastArena remembers, per thread, the arena it used last, mirroring
	// glibc's thread->arena affinity.
	lastArena []atomic.Int32
	stats     *Stats
}

// NewArenaAllocator creates an allocator with narenas arenas serving
// nthreads threads. glibc creates roughly 8×cores arenas; callers pick.
func NewArenaAllocator(nthreads, narenas int) *ArenaAllocator {
	if narenas < 1 {
		narenas = 1
	}
	a := &ArenaAllocator{
		arenas:    make([]*arena, narenas),
		lastArena: make([]atomic.Int32, nthreads),
		stats:     &Stats{},
	}
	for i := range a.arenas {
		a.arenas[i] = &arena{}
	}
	for i := range a.lastArena {
		a.lastArena[i].Store(int32(i % narenas))
	}
	return a
}

// Alloc takes the thread's preferred arena if its mutex is free, otherwise
// scans for any uncontended arena, otherwise blocks on the preferred one —
// glibc's arena_get logic.
func (a *ArenaAllocator) Alloc(tid, size int) *Buffer {
	pref := int(a.lastArena[tid].Load())
	ar := a.arenas[pref]
	if !ar.mu.TryLock() {
		found := false
		for i, cand := range a.arenas {
			if cand.mu.TryLock() {
				ar = cand
				a.lastArena[tid].Store(int32(i))
				found = true
				break
			}
		}
		if !found {
			ar.mu.Lock()
		}
	}
	a.stats.LockAcquires.Add(1)
	if obs.On() {
		mArenaLock.Inc(tid)
	}
	var b *Buffer
	for n := len(ar.free); n > 0; n-- {
		cand := ar.free[n-1]
		ar.free = ar.free[:n-1]
		if cap(cand.Data) >= size {
			cand.Data = cand.Data[:size]
			b = cand
			break
		}
	}
	if b == nil {
		b = &Buffer{Data: make([]byte, size), Owner: tid}
		if obs.On() {
			mArenaGrow.Inc(tid)
		}
	}
	b.arena = ar
	ar.mu.Unlock()
	return b
}

// Free returns the buffer to the arena it was allocated from. This is where
// the contention arises: every thread freeing buffers from the same source
// serializes on that arena's mutex.
func (a *ArenaAllocator) Free(tid int, b *Buffer) {
	ar := b.arena
	if ar == nil {
		return
	}
	ar.mu.Lock()
	a.stats.LockAcquires.Add(1)
	ar.free = append(ar.free, b)
	ar.mu.Unlock()
	if obs.On() {
		mArenaLock.Inc(tid)
	}
}

// Stats returns the allocator's event counters.
func (a *ArenaAllocator) Stats() *Stats { return a.stats }

var (
	_ Allocator = (*PoolAllocator)(nil)
	_ Allocator = (*ArenaAllocator)(nil)
)
