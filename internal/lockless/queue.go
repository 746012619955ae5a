// Package lockless implements the producer/consumer queues used by the
// Charm++ machine layer on Blue Gene/Q (paper §III-A).
//
// The central structure is L2Queue, a multi-producer single-consumer queue
// built on a pair of adjacent L2 atomic words: the producer counter and the
// bound. A producer performs a bounded load-increment; the returned ticket
// modulo the ring size selects the slot where the message is published.
// The consumer dequeues a slot and raises the bound by one, re-opening the
// slot for producers. When the ring is full the bounded increment fails
// and the producer falls back to a mutex-protected overflow queue.
//
// Charm++ has no message-ordering requirement, so — unlike the PAMI variant
// used for MPI, which must lock and consult the overflow queue before
// raising the bound — the consumer here drains the L2 ring first and only
// touches the overflow queue when the ring is empty. That keeps the fast
// path completely lock-free, which is the optimization the paper calls out.
//
// MutexQueue provides the traditional lock-guarded queue as a baseline for
// the ablation experiments (Fig. 8).
package lockless

import (
	"sync"
	"sync/atomic"
	"time"

	"blueq/internal/l2atomic"
	"blueq/internal/obs"
	"blueq/internal/wakeup"
)

// DefaultRingSize is the number of slots in an L2Queue ring when the caller
// passes size <= 0. 1024 slots matches the Charm++ BG/Q machine layer.
const DefaultRingSize = 1024

// L2Queue is the lockless multi-producer single-consumer queue from the
// paper, carrying items of type T. Only one consumer goroutine may call
// Dequeue; any number of goroutines may call Enqueue. The same ring
// carries the PE scheduler queues, the MU reception FIFOs, the PAMI work
// queues and the §III-B per-thread pool free lists.
type L2Queue[T any] struct {
	pc   l2atomic.BoundedCounter // producer counter + bound, adjacent words
	mask uint64
	ring []slot[T]
	id   int // metric shard key (one per queue)

	// consumed counts messages the consumer has taken from the ring. Only
	// the consumer writes it; it is atomic so that monitoring threads may
	// call Empty/Len concurrently.
	consumed atomic.Uint64

	// Overflow queue, used by producers only when the ring is full and by
	// the consumer only when the ring is empty.
	omu      sync.Mutex
	overflow deque[T]
	olen     atomic.Int64

	// Overflow cap (flow control): when ocap > 0, producers finding the
	// overflow queue at the cap park on ogate for up to omaxBlock before
	// spilling anyway — bounded memory under a slow consumer without ever
	// dropping a message. Set before traffic flows.
	ocap      int64
	omaxBlock time.Duration
	ogate     wakeup.Gate
}

// slot is one ring index: a message and the flag that publishes it, so the
// ring can tell "published" from "empty" even when the message is a zero
// value. A producer may write ring[i] only while it holds ticket i (the
// bounded counter admits one outstanding ticket per index): it stores the
// message, then sets full. The consumer takes the message and clears both
// before the bound raise the next producer's load-increment acquires. That
// ordering makes the in-place reuse race-free, and message and flag share
// a cache line, so a publish from another core moves one line. The enqueue
// fast path allocates nothing, which the §III-B pools depend on: a pooled
// message path that heap-boxed every queue publication would put the GC
// right back in the hot loop.
type slot[T any] struct {
	msg  T
	full atomic.Bool
}

// deque is a FIFO of fixed-size chunks, the overflow queue's backing
// store. A single growing slice is pathological under sustained spill: the
// consumer pops by reslicing, so the front capacity is never reused and
// every append eventually regrows the whole backlog — an O(backlog) copy
// with a bulk write barrier over every pointer. Chunks never move once
// allocated and drained chunks recycle through a small free list, so
// steady-state spill traffic allocates nothing. Callers synchronize.
type deque[T any] struct {
	chunks [][]T // FIFO of chunks; all but the last are full
	head   int   // pop index into chunks[0]
	free   [][]T // retired chunks ready for reuse
}

const (
	dequeChunk   = 512
	dequeFreeMax = 8
)

func (d *deque[T]) grab() []T {
	if n := len(d.free); n > 0 {
		c := d.free[n-1]
		d.free = d.free[:n-1]
		return c
	}
	return make([]T, 0, dequeChunk)
}

// pushN appends msgs in chunk-sized gulps.
func (d *deque[T]) pushN(msgs []T) {
	for len(msgs) > 0 {
		n := len(d.chunks)
		if n == 0 || len(d.chunks[n-1]) == dequeChunk {
			d.chunks = append(d.chunks, d.grab())
			n++
		}
		tail := d.chunks[n-1]
		take := dequeChunk - len(tail)
		if take > len(msgs) {
			take = len(msgs)
		}
		d.chunks[n-1] = append(tail, msgs[:take]...)
		msgs = msgs[take:]
	}
}

func (d *deque[T]) pop() (T, bool) {
	var zero T
	if len(d.chunks) == 0 || d.head >= len(d.chunks[0]) {
		return zero, false
	}
	c := d.chunks[0]
	m := c[d.head]
	c[d.head] = zero
	d.head++
	if d.head == len(c) {
		d.head = 0
		d.chunks = d.chunks[1:]
		if len(d.free) < dequeFreeMax {
			d.free = append(d.free, c[:0])
		}
	}
	return m, true
}

// NewL2Queue returns an untyped queue, NewL2QueueOf[any].
func NewL2Queue(size int) *L2Queue[any] { return NewL2QueueOf[any](size) }

// NewL2QueueOf returns a queue of T whose ring has the given number of
// slots, rounded up to a power of two; size <= 0 selects DefaultRingSize.
func NewL2QueueOf[T any](size int) *L2Queue[T] {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	q := &L2Queue[T]{
		mask: uint64(n - 1),
		ring: make([]slot[T], n),
		id:   nextQueueID(),
	}
	q.pc.Reset(0, uint64(n))
	return q
}

// SetOverflowCap bounds the overflow queue at cap messages: a producer
// finding it full parks until the consumer drains below the cap or
// maxBlock elapses, after which it spills anyway — backpressure with a
// liveness escape, never a drop. cap <= 0 restores the unbounded
// behaviour. Call before traffic flows; the cap is read without
// synchronization on the producer slow path.
func (q *L2Queue[T]) SetOverflowCap(cap int, maxBlock time.Duration) {
	q.ocap = int64(cap)
	q.omaxBlock = maxBlock
}

// OverflowCap returns the configured overflow cap (0 = unbounded).
func (q *L2Queue[T]) OverflowCap() int { return int(q.ocap) }

// Enqueue publishes msg. The fast path is a single bounded load-increment
// plus a slot store; when the ring is full the message goes to the
// overflow queue under its mutex (parking first when the overflow cap is
// reached).
func (q *L2Queue[T]) Enqueue(msg T) {
	if ticket, ok := q.pc.BoundedLoadIncrement(); ok {
		s := &q.ring[ticket&q.mask]
		s.msg = msg
		s.full.Store(true)
		if obs.On() {
			mEnqueue.Inc(q.id)
			mDepthHW.SetMax(int64(ticket + 1 - q.consumed.Load()))
		}
		return
	}
	q.spill([]T{msg})
}

// EnqueueBatch publishes msgs with one bounded load-add per contiguous run
// of free slots — the aggregation layer's receive path lands a whole
// unpacked batch with a single serialization on the producer counter,
// mirroring how the BG/Q MU reserves a descriptor chain per injection
// burst. Messages that do not fit the ring spill as Enqueue's do,
// parking at the overflow cap.
func (q *L2Queue[T]) EnqueueBatch(msgs []T) {
	for len(msgs) > 0 {
		base, got := q.pc.BoundedLoadAdd(uint64(len(msgs)))
		if got == 0 {
			break
		}
		// Each reserved ticket owns its slot exclusively, so the whole run
		// publishes without allocating.
		for i := uint64(0); i < got; i++ {
			s := &q.ring[(base+i)&q.mask]
			s.msg = msgs[i]
			s.full.Store(true)
		}
		if obs.On() {
			mEnqueue.Add(q.id, int64(got))
			mDepthHW.SetMax(int64(base + got - q.consumed.Load()))
		}
		msgs = msgs[got:]
	}
	q.spill(msgs)
}

// spill appends what did not fit the ring to the overflow queue in
// chunks, one lock per chunk instead of one per message. Each chunk is
// bounded by the headroom under the overflow cap (everything at once when
// uncapped), so producers still park at the cap between chunks and the
// backlog bound grows by at most one chunk per racing producer.
func (q *L2Queue[T]) spill(msgs []T) {
	for len(msgs) > 0 {
		n := len(msgs)
		if q.ocap > 0 {
			// Park at the cap. It is soft by one chunk per racing producer
			// (check and append are not atomic together, so the ring stays
			// lock-free), which changes the bound, not the boundedness.
			if q.olen.Load() >= q.ocap {
				mCapHit.Inc(q.id)
				if !wakeup.Park(func() bool { return q.olen.Load() < q.ocap }, nil, q.omaxBlock, &q.ogate) {
					// Escape hatch: a producer that is itself the queue's
					// consumer (a PE sending to itself) would otherwise
					// deadlock. Spill and count it; the cap re-binds as soon
					// as the consumer drains.
					mCapOverrun.Inc(q.id)
				}
			}
			if room := q.ocap - q.olen.Load(); room > 0 && room < int64(n) {
				n = int(room)
			}
		}
		q.omu.Lock()
		q.overflow.pushN(msgs[:n])
		q.omu.Unlock()
		q.olen.Add(int64(n))
		if obs.On() {
			mEnqueue.Add(q.id, int64(n))
			mSpill.Add(q.id, int64(n))
		}
		msgs = msgs[n:]
	}
}

// Dequeue removes one message. It drains the L2 ring first; the overflow
// queue is consulted only when the ring is empty, exploiting Charm++'s lack
// of ordering requirements.
func (q *L2Queue[T]) Dequeue() (T, bool) {
	var zero T
	if s := &q.ring[q.consumed.Load()&q.mask]; s.full.Load() {
		// Take the message and clear the slot BEFORE raising the bound:
		// the raise re-opens this index for producers, who reuse the slot
		// in place.
		msg := s.msg
		s.msg = zero
		s.full.Store(false)
		q.consumed.Add(1)
		q.pc.StoreAddBound(1)
		if obs.On() {
			mDequeue.Inc(q.id)
		}
		return msg, true
	}
	if q.olen.Load() > 0 {
		return q.popOverflow()
	}
	return zero, false
}

// popOverflow takes the overflow queue's head, opening the cap's gate when
// the pop leaves the queue below the cap.
func (q *L2Queue[T]) popOverflow() (T, bool) {
	q.omu.Lock()
	msg, ok := q.overflow.pop()
	q.omu.Unlock()
	if !ok {
		return msg, false
	}
	if q.olen.Add(-1) < q.ocap {
		q.ogate.Open()
	}
	if obs.On() {
		mDequeue.Inc(q.id)
		mDrain.Inc(q.id)
	}
	return msg, true
}

// Empty reports whether both the ring and the overflow queue appear empty.
// The idle-poll loop (paper §III-D) spins on exactly this check: a load of
// the producer counter (an L2 atomic load on hardware, ~60 cycles) plus the
// overflow length.
func (q *L2Queue[T]) Empty() bool {
	return q.pc.Counter() == q.consumed.Load() && q.olen.Load() == 0
}

// Len returns the approximate queue length (ring + overflow).
func (q *L2Queue[T]) Len() int {
	n := int(q.pc.Counter()-q.consumed.Load()) + int(q.olen.Load())
	if n < 0 {
		return 0
	}
	return n
}

// OverflowLen returns the number of messages currently in the overflow
// queue; used by tests and by the machine-layer statistics.
func (q *L2Queue[T]) OverflowLen() int { return int(q.olen.Load()) }

// RingCap returns the ring capacity in slots.
func (q *L2Queue[T]) RingCap() int { return len(q.ring) }

// MutexQueue is the traditional producer/consumer queue guarded by a single
// mutex. It is the baseline the paper replaces: under many concurrent
// producers the mutex serializes all enqueues.
type MutexQueue struct {
	mu   sync.Mutex
	head int
	buf  []any
	id   int // metric shard key
}

// NewMutexQueue returns an empty mutex-guarded queue.
func NewMutexQueue() *MutexQueue { return &MutexQueue{id: nextQueueID()} }

// Enqueue appends msg under the queue mutex.
func (q *MutexQueue) Enqueue(msg any) {
	q.mu.Lock()
	q.buf = append(q.buf, msg)
	q.mu.Unlock()
	if obs.On() {
		mMutexEnq.Inc(q.id)
	}
}

// EnqueueBatch appends msgs under one acquisition of the queue mutex.
func (q *MutexQueue) EnqueueBatch(msgs []any) {
	q.mu.Lock()
	q.buf = append(q.buf, msgs...)
	q.mu.Unlock()
	if obs.On() {
		mMutexEnq.Add(q.id, int64(len(msgs)))
	}
}

// Dequeue removes the oldest message under the queue mutex.
func (q *MutexQueue) Dequeue() (any, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.buf) {
		if q.head > 0 {
			q.buf = q.buf[:0]
			q.head = 0
		}
		return nil, false
	}
	msg := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if obs.On() {
		mMutexDeq.Inc(q.id)
	}
	return msg, true
}

// Empty reports whether the queue is empty.
func (q *MutexQueue) Empty() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.head == len(q.buf)
}

// Len returns the queue length.
func (q *MutexQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) - q.head
}
