// Package flowctl is the runtime-wide credit-based flow-control and
// overload-protection layer. The paper's whole design rests on *bounded*
// structures — the MU injection FIFOs, the L2-atomic rings, the per-thread
// buffer pools all have fixed capacity, and the hardware grants a sender
// space before it may inject. The functional port silently escaped those
// bounds: the lockless overflow queue, the PAMI reorder buffer and the
// scheduler backlog all grew without limit when a consumer fell behind.
// This package restores the hardware's discipline in software:
//
//   - Per-(src,dst node) send credits, the software analogue of the BG/Q
//     MU FIFO credits: a node may hold at most Window unexecuted Converse
//     messages toward a destination node. One rule, kept by Converse
//     alone: a credit is charged when a message leaves its PE for another
//     node and returned when the destination PE has executed it, so the
//     window bounds the consumer's backlog, not just the wire. Traffic
//     sent straight through PAMI (heartbeats, probes, gossip, protocol
//     acks) is never credited.
//   - Hard caps on the spill structures (lockless overflow queue, PAMI
//     reorder buffer, sized from Window) with the sender parked on a
//     wakeup unit instead of silent unbounded growth — reliable traffic
//     is never dropped.
//   - Memory-pressure signaling from the mempool arenas: soft/hard
//     watermarks shrink the granted window *before* allocation fails.
//   - Burst admission for many-to-many exchanges, so an all-to-all cannot
//     land its entire fan-in on one receiver at once.
//
// Together these form the degradation ladder, observable via obs gauges:
//
//	0 full speed   — credits flowing, no pressure
//	1 throttled    — soft watermark crossed, windows halved
//	2 shedding     — hard watermark crossed, windows quartered and
//	                 best-effort traffic dropped (counted, never silent)
//	3 blocked      — at least one sender is parked on an empty window
//	                 (backpressure has reached the source)
//
// Parking is a wakeup.Park, bounded: a sender parked longer than MaxBlock
// proceeds on overdraft (counted) so a pathological cycle degrades to slow
// progress, never deadlock — graceful degradation, not collapse.
package flowctl

import (
	"sync/atomic"
	"time"
)

// Defaults. Window mirrors the MU injection FIFO depth order-of-magnitude;
// the caps are sized so a fully-parked machine holds megabytes, not
// gigabytes.
const (
	// DefaultWindow is the per-(src,dst) credit window.
	DefaultWindow = 256
	// DefaultOverflowCap bounds the lockless overflow queue per PE.
	DefaultOverflowCap = 4096
	// DefaultBurstLimit bounds in-flight m2m messages per destination PE.
	DefaultBurstLimit = 64
	// DefaultSoftWatermark is the mempool live-bytes level that shrinks
	// granted windows (ladder rung 1).
	DefaultSoftWatermark = 8 << 20
	// DefaultHardWatermark is the live-bytes level that starts shedding
	// best-effort traffic (ladder rung 2).
	DefaultHardWatermark = 32 << 20
	// DefaultMaxBlock is the longest a sender parks before proceeding on
	// overdraft.
	DefaultMaxBlock = time.Second
)

// Config tunes the flow-control layer. Zero values select the defaults.
type Config struct {
	// Window is the per-(src,dst) credit window: the maximum number of
	// sent but not yet executed messages a node may hold toward one
	// destination node.
	Window int
	// OverflowCap caps each PE's lockless overflow queue; producers park
	// when it is full.
	OverflowCap int
	// BurstLimit caps in-flight many-to-many messages per destination PE.
	BurstLimit int
	// MaxBlock bounds how long a sender parks on an exhausted window or a
	// full cap before proceeding on overdraft. Liveness beats the bound:
	// a cyclic-wait pattern degrades to one message per MaxBlock instead
	// of deadlocking.
	MaxBlock time.Duration
}

// Normalize fills zero fields with defaults.
func (c *Config) Normalize() {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.OverflowCap <= 0 {
		c.OverflowCap = DefaultOverflowCap
	}
	if c.BurstLimit <= 0 {
		c.BurstLimit = DefaultBurstLimit
	}
	if c.MaxBlock <= 0 {
		c.MaxBlock = DefaultMaxBlock
	}
}

// Ladder rungs reported by Controller.State.
const (
	StateFull      = 0 // full speed
	StateThrottled = 1 // soft watermark crossed: windows shrunk
	StateShedding  = 2 // hard watermark crossed: best-effort dropped
	StateBlocked   = 3 // a sender is parked on backpressure
)

// Controller owns the flow-control state of one machine: an n×n matrix of
// directed credit windows and the aggregated memory-pressure level feeding
// the degradation ladder.
type Controller struct {
	cfg     Config
	nodes   int
	windows []Window // [src*nodes+dst]

	// pressure holds each source's reported level; maxPressure caches the
	// max so the Acquire fast path reads one atomic.
	pressure    []atomic.Int32
	maxPressure atomic.Int32

	// blocked counts senders currently parked anywhere in the machine —
	// the signal for ladder rung 3. blockedTotal is the cumulative count
	// of park events, for tests and reports.
	blocked      atomic.Int64
	blockedTotal atomic.Int64

	shed atomic.Int64 // best-effort messages dropped while shedding
}

// NewController builds the flow-control state for a machine spanning the
// given number of nodes. cfg is normalized in place.
func NewController(cfg Config, nodes int) *Controller {
	cfg.Normalize()
	c := &Controller{
		cfg:      cfg,
		nodes:    nodes,
		windows:  make([]Window, nodes*nodes),
		pressure: make([]atomic.Int32, nodes),
	}
	for i := range c.windows {
		c.windows[i].ctl = c
	}
	return c
}

// Config returns the normalized configuration.
func (c *Controller) Config() Config { return c.cfg }

// Window returns the directed credit window for sends src→dst.
func (c *Controller) Window(src, dst int) *Window {
	return &c.windows[src*c.nodes+dst]
}

// SetPressure records a source's memory-pressure level (0, 1, or 2, from
// mempool watermarks) and refreshes the cached machine-wide maximum.
func (c *Controller) SetPressure(src, level int) {
	if src < 0 || src >= len(c.pressure) {
		return
	}
	c.pressure[src].Store(int32(level))
	max := int32(0)
	for i := range c.pressure {
		if v := c.pressure[i].Load(); v > max {
			max = v
		}
	}
	c.maxPressure.Store(max)
	mPressureMax.Set(int64(max))
	mState.Set(int64(c.State()))
}

// PressureLevel returns the machine-wide maximum reported pressure.
func (c *Controller) PressureLevel() int { return int(c.maxPressure.Load()) }

// State returns the current degradation-ladder rung.
func (c *Controller) State() int {
	if c.blocked.Load() > 0 {
		return StateBlocked
	}
	return int(c.maxPressure.Load())
}

// BlockedSenders returns the number of senders currently parked.
func (c *Controller) BlockedSenders() int64 { return c.blocked.Load() }

// BlockedTotal returns the cumulative number of times any sender parked
// on an exhausted window.
func (c *Controller) BlockedTotal() int64 { return c.blockedTotal.Load() }

// TryShed reports whether a best-effort message should be dropped right
// now (ladder rung 2+), counting the drop when it says yes. Reliable
// traffic must never consult it.
func (c *Controller) TryShed(key int) bool {
	if c.maxPressure.Load() < StateShedding {
		return false
	}
	c.shed.Add(1)
	mShed.Inc(key)
	return true
}

// ShedCount returns the number of best-effort messages dropped.
func (c *Controller) ShedCount() int64 { return c.shed.Load() }

// DropPeer abandons flow control toward and from a failed node: every
// window touching it is marked dead (Acquire succeeds immediately — the
// transport discards packets to a dead node anyway) and its in-flight
// count resets, releasing any sender parked against the dead peer.
// Idempotent; the fault-tolerance layer calls it on confirmed failure.
func (c *Controller) DropPeer(rank int) {
	if rank < 0 || rank >= c.nodes {
		return
	}
	for other := 0; other < c.nodes; other++ {
		c.Window(rank, other).markDead()
		c.Window(other, rank).markDead()
	}
}

// resumeAt is the in-flight count a parked sender waits for (RFC 813).
func (c *Controller) resumeAt() int64 {
	limit := c.effectiveWindow()
	return limit - (limit+1)/2
}

// effectiveWindow is the granted window after pressure shrinking: full at
// level 0, halved at 1, quartered at 2. Never below 1 — a zero window
// would starve the very traffic that drains the pressure.
func (c *Controller) effectiveWindow() int64 {
	w := int64(c.cfg.Window) >> c.maxPressure.Load()
	if w < 1 {
		return 1
	}
	return w
}
