// Package aggregate is the TRAM-style per-destination message aggregation
// layer under Converse. The paper's hardware keeps small-message rate high
// with batching machinery — the MU injection FIFOs take whole descriptor
// chains, the L2 atomic queues amortize reservation over many slots, and
// multiple PAMI contexts keep injection pipelines full. The functional
// runtime paid full per-message converse+PAMI+flow-control cost on every
// few-byte payload; this package restores the amortization in software:
//
//   - Messages at or below DefaultMaxMsgBytes headed for a remote node are
//     appended into a per-(src node, dst node) batch buffer instead of
//     being injected individually. The buffer's backing storage comes from
//     the node's mempool allocator — one allocation per batch, recycled
//     through the lockless pools like any other message buffer.
//   - A batch flushes when it fills (MaxBatchBytes or MaxBatchMsgs, the
//     rate path), when the adaptive delay expires (MaxDelay, the backstop
//     for a busy scheduler that never drains), or explicitly (barrier,
//     checkpoint, shutdown). When the sending scheduler goes idle the
//     delay tightens to zero — the idle flush — so latency-sensitive
//     ping-pong traffic is never penalized by the timer.
//   - The receiver unpacks a batch in one dispatch and enqueues each inner
//     message locally: one transport inject, one reliability sequence
//     number, and one dispatch cover N messages.
//
// The layer deliberately knows nothing about Converse: it batches opaque
// items for a flush callback, so it unit-tests in isolation and the
// machine layer owns all protocol decisions (eligibility, credits,
// bypasses).
package aggregate

import (
	"sync"
	"sync/atomic"
	"time"

	"blueq/internal/mempool"
	"blueq/internal/obs"
)

// Defaults, sized for the few-byte entry-method messages the flood and MD
// workloads exchange. A full batch (128 messages or 8 KB of payload,
// whichever binds first) still sits well under PAMI's 16 KB rendezvous
// threshold, so batches always travel the eager path.
const (
	// DefaultMaxMsgBytes is the largest message eligible for aggregation;
	// larger messages take the direct per-message path.
	DefaultMaxMsgBytes = 512
	// DefaultMaxBatchBytes flushes a batch when its modelled wire size
	// reaches this.
	DefaultMaxBatchBytes = 8192
	// DefaultMaxBatchMsgs flushes a batch when it holds this many messages.
	DefaultMaxBatchMsgs = 128
	// DefaultMaxDelay is the flush timer backstop: the longest a message
	// waits in a buffer while the sending scheduler stays busy.
	DefaultMaxDelay = 200 * time.Microsecond
)

// itemHeaderBytes is the modelled per-message header inside a batch
// (handler id, destination rank, length); batchHeaderBytes the batch
// envelope itself.
const (
	itemHeaderBytes  = 4
	batchHeaderBytes = 16
)

// Config tunes the aggregation layer. Zero values select the defaults.
type Config struct {
	// MaxBatchBytes flushes a batch when its wire size reaches this.
	MaxBatchBytes int
	// MaxBatchMsgs flushes a batch when it holds this many messages.
	MaxBatchMsgs int
	// MaxDelay bounds how long a buffered message waits for company while
	// the scheduler stays busy. The idle flush tightens the effective
	// delay to zero whenever the sending scheduler runs out of work, so
	// MaxDelay only governs fully-loaded senders.
	MaxDelay time.Duration
}

// Normalize fills zero fields with defaults and enforces sane minima.
func (c *Config) Normalize() {
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if c.MaxBatchMsgs <= 0 {
		c.MaxBatchMsgs = DefaultMaxBatchMsgs
	}
	if c.MaxBatchMsgs < 2 {
		c.MaxBatchMsgs = 2 // a 1-message "batch" is pure overhead
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = DefaultMaxDelay
	}
}

// FlushReason records why a batch left its buffer, for the obs counters
// and the tests that assert the adaptive behaviour.
type FlushReason int

const (
	// FlushFull: the batch reached MaxBatchBytes or MaxBatchMsgs.
	FlushFull FlushReason = iota
	// FlushTimer: MaxDelay expired with the batch still open.
	FlushTimer
	// FlushIdle: the sending scheduler went idle (adaptive tightening).
	FlushIdle
	// FlushExplicit: barrier, checkpoint, backpressure drain, or shutdown.
	FlushExplicit
	numReasons
)

func (r FlushReason) String() string {
	switch r {
	case FlushFull:
		return "full"
	case FlushTimer:
		return "timer"
	case FlushIdle:
		return "idle"
	case FlushExplicit:
		return "explicit"
	}
	return "unknown"
}

// Batch is the unit that travels the wire: the opaque payload references
// appended since the buffer opened, plus the mempool buffer modelling the
// contiguous batch allocation. The receiver iterates Items and then
// returns the batch with Recycle; batches are reused, so receivers must
// not retain the slice past that call (handing it to a consumer that
// copies synchronously — a batch scheduler enqueue — is fine, and is what
// keeps the unpack path free of a per-message copy).
type Batch struct {
	Items []any
	wire  int
	tid   int // appending worker's pool, for the flush-time allocation
	buf   *mempool.Buffer
}

// WireBytes returns the batch's modelled wire size: envelope plus a
// per-message header plus the payloads.
func (b *Batch) WireBytes() int { return batchHeaderBytes + b.wire }

// Len returns the number of messages in the batch.
func (b *Batch) Len() int { return len(b.Items) }

// dstBuf is the open buffer toward one destination node. Its MaxDelay
// timer is created once and armed lazily: a batch opening while a fire is
// pending adds no timer operation, and no flush stops the timer. The fire
// flushes a batch that has waited MaxDelay and re-arms for the remainder
// of a younger one, so MaxDelay still bounds every wait; a fire finding
// no batch lets the timer idle until the next open arms it.
type dstBuf struct {
	mu     sync.Mutex
	cur    *Batch
	opened time.Duration // cur's open time, on the aggregator's clock
	timer  *time.Timer
	armed  bool // a fire is due
}

// Stats is a snapshot of the aggregator's counters.
type Stats struct {
	Batches  int64 // batches flushed
	Messages int64 // messages that travelled inside batches
	Flushes  [4]int64
}

// Aggregator owns one node's outgoing batch buffers, one per destination
// node. Append is called from the node's worker PEs; flushes run on the
// appending goroutine (full, idle, explicit) or a timer goroutine
// (MaxDelay backstop). The flush callback must be safe to call from any
// goroutine, like the reliability layer's retransmission injects.
type Aggregator struct {
	cfg   Config
	self  int
	alloc mempool.Allocator // may be nil: plain heap batches
	flush func(dst int, b *Batch)

	bufs    []dstBuf
	pending atomic.Int64 // open batches across all destinations
	closed  atomic.Bool
	epoch   time.Time // origin of dstBuf.opened: a monotonic read per open

	freeMu   sync.Mutex
	freeList []*Batch

	// allocMu serialises flush-time allocations: flushes run on any worker
	// of the node and on the MaxDelay timer, while a mempool pool has one
	// consumer.
	allocMu sync.Mutex

	batches atomic.Int64
	msgs    atomic.Int64
	reasons [numReasons]atomic.Int64
}

// maxFreeBatches bounds the recycle list; beyond it batches go to the GC,
// mirroring the mempool's pool threshold.
const maxFreeBatches = 64

// New creates an aggregator for a node. self is the node's rank, nodes the
// machine span; alloc (optional) supplies the per-batch buffer; flush is
// invoked with a ready batch and must inject it toward dst.
func New(cfg Config, self, nodes int, alloc mempool.Allocator, flush func(dst int, b *Batch)) *Aggregator {
	cfg.Normalize()
	return &Aggregator{
		cfg:   cfg,
		self:  self,
		alloc: alloc,
		flush: flush,
		bufs:  make([]dstBuf, nodes),
		epoch: time.Now(),
	}
}

// Config returns the normalized configuration.
func (a *Aggregator) Config() Config { return a.cfg }

// Eligible reports whether a message of the given wire size should be
// aggregated rather than sent directly.
func (a *Aggregator) Eligible(bytes int) bool {
	return bytes <= DefaultMaxMsgBytes && !a.closed.Load()
}

// Pending returns the number of open (unflushed) batches. The scheduler's
// idle path reads it to skip the flush scan with one atomic load.
func (a *Aggregator) Pending() int64 { return a.pending.Load() }

// Stats returns a snapshot of the counters.
func (a *Aggregator) Stats() Stats {
	s := Stats{Batches: a.batches.Load(), Messages: a.msgs.Load()}
	for i := range s.Flushes {
		s.Flushes[i] = a.reasons[i].Load()
	}
	return s
}

// Append buffers one message toward dst, opening a batch (and arming its
// MaxDelay timer) if none is open, and flushing inline when the batch
// fills. tid selects the mempool pool for the batch allocation — pass the
// appending worker's local rank. Returns false if the aggregator has been
// closed; the caller then sends directly.
func (a *Aggregator) Append(dst, tid int, data any, bytes int) bool {
	if a.closed.Load() {
		return false
	}
	d := &a.bufs[dst]
	d.mu.Lock()
	if a.closed.Load() {
		d.mu.Unlock()
		return false
	}
	b := d.cur
	if b == nil {
		b = a.getBatch(tid)
		d.cur = b
		d.opened = time.Since(a.epoch)
		a.pending.Add(1)
		if !d.armed {
			d.armed = true
			if d.timer == nil {
				d.timer = time.AfterFunc(a.cfg.MaxDelay, func() { a.flushTimer(dst) })
			} else {
				d.timer.Reset(a.cfg.MaxDelay)
			}
		}
	}
	b.Items = append(b.Items, data)
	b.wire += itemHeaderBytes + bytes
	if len(b.Items) >= a.cfg.MaxBatchMsgs || b.wire >= a.cfg.MaxBatchBytes {
		a.takeLocked(d)
		d.mu.Unlock()
		a.dispatch(dst, b, FlushFull)
		return true
	}
	d.mu.Unlock()
	return true
}

// takeLocked detaches the open batch; a pending fire stays armed and
// finds the buffer empty or a younger batch. Caller holds d.mu and owns
// the returned state via d.cur having been read first.
func (a *Aggregator) takeLocked(d *dstBuf) {
	d.cur = nil
	a.pending.Add(-1)
}

// flushTimer is the MaxDelay backstop. A fire finding no batch idles the
// timer; one finding a batch younger than MaxDelay (opened after the arm)
// re-arms for the batch's remaining wait.
func (a *Aggregator) flushTimer(dst int) {
	d := &a.bufs[dst]
	d.mu.Lock()
	d.armed = false
	if d.cur == nil {
		d.mu.Unlock()
		return
	}
	if wait := a.cfg.MaxDelay - (time.Since(a.epoch) - d.opened); wait > 0 {
		d.armed = true
		d.timer.Reset(wait)
		d.mu.Unlock()
		return
	}
	b := d.cur
	a.takeLocked(d)
	d.mu.Unlock()
	a.dispatch(dst, b, FlushTimer)
}

// FlushDst flushes the open batch toward one destination, if any.
func (a *Aggregator) FlushDst(dst int, reason FlushReason) {
	d := &a.bufs[dst]
	d.mu.Lock()
	if d.cur == nil {
		d.mu.Unlock()
		return
	}
	b := d.cur
	a.takeLocked(d)
	d.mu.Unlock()
	a.dispatch(dst, b, reason)
}

// FlushAll flushes every open batch. The idle path calls this with
// FlushIdle on every empty scheduler iteration; the Pending early-out
// keeps that a single atomic load when nothing is buffered.
func (a *Aggregator) FlushAll(reason FlushReason) {
	if a.pending.Load() == 0 {
		return
	}
	for dst := range a.bufs {
		a.FlushDst(dst, reason)
	}
}

// dispatch hands a detached batch to the flush callback and counts it.
// The single per-batch wire allocation happens here, sized to the bytes
// the batch actually carries — allocating MaxBatchBytes eagerly at open
// would pin peak-sized buffers through the whole in-flight window.
func (a *Aggregator) dispatch(dst int, b *Batch, reason FlushReason) {
	if a.alloc != nil {
		a.allocMu.Lock()
		b.buf = a.alloc.Alloc(b.tid, b.WireBytes())
		a.allocMu.Unlock()
	}
	a.batches.Add(1)
	a.msgs.Add(int64(len(b.Items)))
	a.reasons[reason].Add(1)
	if obs.On() {
		// Appends are counted here, once per batch, so the per-message hot
		// path carries no metric check at all.
		mAppend.Add(a.self, int64(len(b.Items)))
		mBatches.Inc(a.self)
		mBatchMsgs.Observe(a.self, int64(len(b.Items)))
		mFlushReason[reason].Inc(a.self)
	}
	a.flush(dst, b)
}

// Recycle returns a batch whose items have been fully unpacked: the
// mempool buffer goes back to its pool and the item slice is reused for a
// future batch. Called by the receiving node's dispatch, exactly once per
// delivered batch (the reliability layer dedups retransmitted copies).
func (a *Aggregator) Recycle(b *Batch) {
	if b.buf != nil && a.alloc != nil {
		a.alloc.Free(0, b.buf)
	}
	b.buf = nil
	b.wire = 0
	for i := range b.Items {
		b.Items[i] = nil // drop payload references for the GC
	}
	b.Items = b.Items[:0]
	a.freeMu.Lock()
	if len(a.freeList) < maxFreeBatches {
		a.freeList = append(a.freeList, b)
	}
	a.freeMu.Unlock()
}

// getBatch pops a recycled batch or builds a fresh one, taking the single
// per-batch allocation from the mempool.
func (a *Aggregator) getBatch(tid int) *Batch {
	a.freeMu.Lock()
	var b *Batch
	if n := len(a.freeList); n > 0 {
		b = a.freeList[n-1]
		a.freeList = a.freeList[:n-1]
	}
	a.freeMu.Unlock()
	if b == nil {
		b = &Batch{Items: make([]any, 0, a.cfg.MaxBatchMsgs)}
	}
	b.tid = tid
	return b
}

// Close flushes every open batch and stops accepting appends; armed
// timers are cancelled. Idempotent. Called from machine Shutdown before
// the PAMI clients stop, so the final flush still injects.
func (a *Aggregator) Close() {
	if !a.closed.CompareAndSwap(false, true) {
		return
	}
	a.FlushAll(FlushExplicit)
}

// Discard drops every open batch without flushing and stops accepting
// appends — fail-stop semantics for a killed node, whose buffered
// messages die with it exactly as messages in a powered-off node's
// injection FIFOs would.
func (a *Aggregator) Discard() {
	a.closed.Store(true)
	for dst := range a.bufs {
		d := &a.bufs[dst]
		d.mu.Lock()
		if d.cur != nil {
			b := d.cur
			a.takeLocked(d)
			a.Recycle(b)
		}
		d.mu.Unlock()
	}
}
