package pami

import (
	"slices"
	"sync"
	"time"

	"blueq/internal/obs"
	"blueq/internal/torus"
)

// The reliability sublayer, armed per node when the transport reports
// Reliable() == false (the faulty backend). Real PAMI assumes a lossless
// network, so this protocol has no hardware counterpart; it is the
// graceful-degradation machinery that turns "every packet always arrives"
// into an explicit, tested contract:
//
//   - every eager packet from node A to node B carries a per-(A,B) channel
//     sequence number (relPacket);
//   - the receiver delivers strictly in sequence order — out-of-order
//     arrivals are buffered, duplicates (retransmissions, transport dups)
//     are suppressed by the cumulative sequence horizon — so FIFO order
//     and exactly-once delivery both survive drops, dups, and delays;
//   - the receiver acknowledges with the highest in-order sequence
//     delivered (relAck, cumulative, idempotent, itself unreliable);
//   - the sender retransmits unacknowledged packets on a timer with
//     exponential backoff until acknowledged.
//
// Sequence numbers are dense and acks cumulative, so the sender's
// unacknowledged set is always the contiguous run (acked, nextSeq]: the
// retransmission window is a FIFO, one slice in sequence order — a send
// appends, an ack deletes a prefix, a retry walks it front to back — and
// needs no lookup by sequence number.
//
// This is the only retransmission and dedup protocol in the tree: every
// layer above (aggregation, m2m, load balancing, migration, the rendezvous
// header and ack) sends through it and keeps no timers of its own. The
// rendezvous Rget pull is a direct memory copy and bypasses it.

// Retry timing for unacknowledged packets. Variables, not constants, so
// tests can tighten them; production code treats them as constants. Each
// reliator copies them at construction (NewClient), so set them before
// building a client — later writes never race with running retry timers.
var (
	// RetryBase is the first retransmission delay for a channel.
	RetryBase = 2 * time.Millisecond
	// RetryMax caps exponential backoff.
	RetryMax = 100 * time.Millisecond
	// DefaultReorderCap bounds each receive channel's out-of-order buffer.
	// An out-of-order arrival finding the buffer full is refused — neither
	// buffered nor acknowledged — so the sender's retransmission timer
	// re-offers it once the gap closes: exactly-once delivery with bounded
	// receiver memory. A client built for a larger credit window raises
	// the bound to the window (NewClientWindow, Client.ReorderCap).
	DefaultReorderCap = 512
	// RetryStreakThreshold is how many consecutive retransmission rounds a
	// channel endures without an intervening ack before the retry-streak
	// observer fires (and fires again every further multiple). Streaks are
	// the reliability sublayer's link-health signal: a peer that acks
	// other nodes but starves one channel looks like a gray link, not a
	// dead node, and the fault-tolerance layer uses the streak to suspect
	// the path rather than the peer.
	RetryStreakThreshold = 3
)

// RetryStreakObserver is notified when the (src, dst) channel's
// consecutive-retry streak reaches a multiple of RetryStreakThreshold.
// Called outside the reliability lock, possibly from a timer goroutine;
// it must not block and must not call back into KickRetransmit
// synchronously.
type RetryStreakObserver func(src, dst, streak int)

// relPacket wraps an eager active message with its channel sequence number.
type relPacket struct {
	seq uint64
	am  amPacket
}

// relAck acknowledges every sequence number <= cum on the (src, acker)
// channel. Acks are unreliable and idempotent.
type relAck struct {
	cum uint64
}

// relSendState is the sender half of one directed node-pair channel.
// window is the retransmission window: the unacknowledged packets, oldest
// first — sequence numbers nextSeq-len(window)+1 through nextSeq — each
// stamped and ready to re-inject as is.
// timer is the channel's one retransmission timer for its whole life; no
// ack stops or resets it. gen bumps on every arm, fire and cancel and
// armedGen is the gen of the last arm, so the timer is pending while they
// are equal and a fire finding them unequal is stale. armedBase is the
// window base at the last arm.
type relSendState struct {
	nextSeq   uint64 // last sequence number assigned
	window    []torus.Packet
	timer     *time.Timer
	gen       uint64
	armedGen  uint64
	armedBase uint64
	backoff   time.Duration
	streak    int // consecutive retry rounds since the last ack
}

// base is the cumulative ack horizon: every sequence number at or below it
// is acknowledged.
func (st *relSendState) base() uint64 { return st.nextSeq - uint64(len(st.window)) }

// relRecvState is the receiver half: nextExpected is the cumulative
// horizon (everything below it has been delivered), buffer holds
// out-of-order arrivals awaiting their predecessors.
type relRecvState struct {
	nextExpected uint64
	buffer       map[uint64]amPacket
}

// ReliabilityStats counts protocol events for tests and reports.
type ReliabilityStats struct {
	Retries      int64 // packets retransmitted on timeout
	Redelivered  int64 // duplicate arrivals suppressed
	Reordered    int64 // out-of-order arrivals buffered
	Parked       int64 // out-of-order arrivals refused at the reorder cap
	AcksSent     int64
	AcksReceived int64
}

// reliator owns the reliability state of one node.
type reliator struct {
	node      *Node
	base      time.Duration // RetryBase at construction
	max       time.Duration // RetryMax at construction
	rcap      int           // reorder buffer cap per channel
	streakThr int           // RetryStreakThreshold at construction

	mu    sync.Mutex
	send  map[int]*relSendState
	recv  map[int]*relRecvState
	stats ReliabilityStats
	down  bool // Shutdown called: stop arming timers
}

func newReliator(n *Node, reorderCap int) *reliator {
	return &reliator{
		node:      n,
		base:      RetryBase,
		max:       RetryMax,
		rcap:      reorderCap,
		streakThr: RetryStreakThreshold,
		send:      make(map[int]*relSendState),
		recv:      make(map[int]*relRecvState),
	}
}

// ReliabilityStats returns a snapshot of the node's reliability counters,
// zero when the transport is reliable and the sublayer is disarmed.
func (n *Node) ReliabilityStats() ReliabilityStats {
	if n.rel == nil {
		return ReliabilityStats{}
	}
	n.rel.mu.Lock()
	defer n.rel.mu.Unlock()
	return n.rel.stats
}

// sendEager assigns the next channel sequence number, records the packet
// for retransmission, and injects it.
func (r *reliator) sendEager(dstNode, fifo, bytes int, am amPacket) error {
	r.mu.Lock()
	st := r.send[dstNode]
	if st == nil {
		st = &relSendState{}
		r.send[dstNode] = st
	}
	st.nextSeq++
	p := torus.Packet{
		Type:    torus.MemoryFIFO,
		Dst:     dstNode,
		Bytes:   bytes,
		FIFO:    fifo,
		Payload: relPacket{seq: st.nextSeq, am: am},
	}
	// Stamp before recording: retransmissions reuse the stored packet, so
	// they carry the identical checksum.
	r.node.stamp(&p)
	st.window = append(st.window, p)
	r.armLocked(st, dstNode)
	r.mu.Unlock()
	return r.node.ep.Inject(p)
}

// armLocked ensures the channel's retransmit timer is pending.
func (r *reliator) armLocked(st *relSendState, dstNode int) {
	if (st.timer != nil && st.armedGen == st.gen) || r.down {
		return
	}
	if st.backoff == 0 {
		st.backoff = r.base
	}
	st.gen++
	st.armedGen, st.armedBase = st.gen, st.base()
	if st.timer == nil {
		st.timer = time.AfterFunc(st.backoff, func() { r.fire(dstNode) })
	} else {
		st.timer.Reset(st.backoff)
	}
}

// fire is the retransmit timer's expiry. An empty window idles the timer
// until the next send arms it; a window an ack advanced since the arm
// re-arms at RetryBase without retransmitting; a stalled one is
// retransmitted. So a lost packet is re-sent one to two backoffs after it
// left, however many stale acks arrive.
func (r *reliator) fire(dstNode int) {
	r.mu.Lock()
	st := r.send[dstNode]
	if st == nil || r.down || st.armedGen != st.gen {
		r.mu.Unlock() // stale: cancelled since it was armed
		return
	}
	st.gen++
	switch {
	case len(st.window) == 0:
		st.backoff = 0
	case st.base() != st.armedBase:
		st.backoff = r.base
		r.armLocked(st, dstNode)
	default:
		r.mu.Unlock()
		r.retry(dstNode)
		return
	}
	r.mu.Unlock()
}

// retry retransmits every unacknowledged packet on the channel, doubling
// the backoff, until acks drain the channel.
func (r *reliator) retry(dstNode int) {
	r.mu.Lock()
	st := r.send[dstNode]
	if st == nil || r.down {
		r.mu.Unlock()
		return
	}
	if len(st.window) == 0 {
		st.backoff = 0
		r.mu.Unlock()
		return
	}
	// Retransmit in sequence order (the window's own) so a lossless window
	// is rebuilt with minimal receiver buffering. Copied out: the injects
	// run outside the lock, where an ack may shift the window.
	packets := slices.Clone(st.window)
	r.stats.Retries += int64(len(packets))
	st.streak++
	streak := st.streak
	st.backoff = min(2*st.backoff, r.max)
	r.armLocked(st, dstNode)
	r.mu.Unlock()
	if obs.On() {
		mRelRetry.Add(r.node.rank, int64(len(packets)))
	}
	// Surface sustained starvation: every streakThr consecutive
	// unacknowledged rounds, tell the observer (outside the lock — the
	// handler may take its own locks). Modulo, not ==, so a channel that
	// stays starved keeps re-raising suspicion.
	if streak%r.streakThr == 0 {
		if f := r.node.client.streakObs.Load(); f != nil {
			if obs.On() {
				mRelStreak.Inc(r.node.rank)
			}
			(*f)(r.node.rank, dstNode, streak)
		}
	}
	for _, p := range packets {
		_ = r.node.ep.Inject(p)
	}
}

// onPacket runs on the receiving node for every relPacket arrival. It
// returns the active messages that became deliverable, in sequence order.
func (r *reliator) onPacket(src int, pl relPacket) []amPacket {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.recv[src]
	if st == nil {
		st = &relRecvState{nextExpected: 1, buffer: make(map[uint64]amPacket)}
		r.recv[src] = st
	}
	switch {
	case pl.seq < st.nextExpected:
		// Already delivered: a retransmission or a transport duplicate.
		r.stats.Redelivered++
		if obs.On() {
			mRelRedeliver.Inc(r.node.rank)
		}
		return nil
	case pl.seq > st.nextExpected:
		if _, dup := st.buffer[pl.seq]; dup {
			r.stats.Redelivered++
			if obs.On() {
				mRelRedeliver.Inc(r.node.rank)
			}
			return nil
		}
		if len(st.buffer) >= r.rcap {
			// Reorder buffer at its cap: refuse the packet — neither
			// buffered nor covered by the next cumulative ack — and let
			// the sender's retransmission timer re-offer it after the gap
			// closes. Receiver memory stays bounded; delivery stays
			// exactly-once (the horizon dedups any extra copies).
			r.stats.Parked++
			mRelParked.Inc(r.node.rank)
			return nil
		}
		r.stats.Reordered++
		if obs.On() {
			mRelReorder.Inc(r.node.rank)
		}
		st.buffer[pl.seq] = pl.am
		return nil
	}
	// In sequence: deliver it plus any buffered successors.
	out := []amPacket{pl.am}
	st.nextExpected++
	for {
		am, ok := st.buffer[st.nextExpected]
		if !ok {
			break
		}
		delete(st.buffer, st.nextExpected)
		out = append(out, am)
		st.nextExpected++
	}
	return out
}

// sendAck sends the cumulative acknowledgement for the channel from src.
// Acks are unreliable: a lost ack is repaired by the retransmission it
// fails to suppress, which the receiver dedups and re-acks.
func (r *reliator) sendAck(src int) {
	r.mu.Lock()
	st := r.recv[src]
	if st == nil {
		r.mu.Unlock()
		return
	}
	cum := st.nextExpected - 1
	r.stats.AcksSent++
	r.mu.Unlock()
	if obs.On() {
		mRelAckSent.Inc(r.node.rank)
	}
	p := torus.Packet{
		Type:    torus.MemoryFIFO,
		Dst:     src,
		Bytes:   ackBytes,
		FIFO:    0,
		Payload: relAck{cum: cum},
	}
	r.node.stamp(&p)
	_ = r.node.ep.Inject(p)
}

// ackBytes is the modelled wire size of a reliability acknowledgement.
const ackBytes = 16

// onAck runs on the sending node: every packet at or below cum is
// delivered, so drop it from the retransmission window.
func (r *reliator) onAck(from int, cum uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.AcksReceived++
	st := r.send[from]
	if st == nil {
		return
	}
	// Any ack arriving proves the round trip works right now, whatever
	// it covers — clear the consecutive-retry streak.
	st.streak = 0
	// The window starts at nextSeq-len+1, so cum covers its first
	// cum-(nextSeq-len) slots: none for a stale or duplicate ack (or one
	// for a window DropPeer cleared), and at most all of them — an ack
	// from beyond nextSeq (a misrouted one, possible with the CRC
	// disarmed) is clamped to the window.
	if base := st.base(); cum > base {
		st.window = slices.Delete(st.window, 0, int(min(cum-base, uint64(len(st.window)))))
	}
}

// dropPeer abandons the send channel to a peer declared failed: pending
// retransmissions to a silenced endpoint can never be acknowledged, so
// the window is cleared and the timer's next fire idles it. The channel
// state stays registered; a straggler send would re-arm it harmlessly.
func (r *reliator) dropPeer(dstNode int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.send[dstNode]
	if st == nil {
		return
	}
	st.window = slices.Delete(st.window, 0, len(st.window))
	st.backoff = 0
	st.streak = 0
}

// kick collapses the channel's backoff and retransmits the pending window
// immediately. The fault-tolerance layer calls it through Node.
// KickRetransmit after rerouting around a link fault: the packets the dead
// link ate are sitting in the window with a backoff that may have climbed
// to RetryMax, and waiting it out would serialize the reroute behind the
// slowest timer.
func (r *reliator) kick(dstNode int) {
	r.mu.Lock()
	st := r.send[dstNode]
	if st == nil || r.down {
		r.mu.Unlock()
		return
	}
	st.gen++ // cancel the pending timer: retry re-arms it at RetryBase
	st.backoff = 0
	r.mu.Unlock()
	r.retry(dstNode)
}

// KickRetransmit immediately retransmits every unacknowledged packet to
// the peer and resets the channel's backoff, as if the first retry timer
// had just fired (no-op when the transport is reliable or the channel is
// idle). Call it after the route to the peer changed — newly healed or
// salted around a fault — so delivery resumes at once instead of after
// the accumulated exponential backoff.
func (n *Node) KickRetransmit(dstNode int) {
	if n.rel != nil {
		n.rel.kick(dstNode)
	}
}

// DropPeer abandons reliable delivery to a failed peer (no-op when the
// transport is reliable). The fault-tolerance layer calls it on every
// survivor once a failure is confirmed; idempotent. The credit windows
// touching the peer were already torn down when the node was halted
// (converse.Machine.HaltNode).
func (n *Node) DropPeer(dstNode int) {
	if n.rel != nil {
		n.rel.dropPeer(dstNode)
	}
}

// ReorderBuffered returns the total number of out-of-order packets
// currently parked in this node's reorder buffers across all channels
// (0 when the transport is reliable). Soak harnesses assert it stays
// under the configured cap.
func (n *Node) ReorderBuffered() int {
	if n.rel == nil {
		return 0
	}
	n.rel.mu.Lock()
	defer n.rel.mu.Unlock()
	total := 0
	for _, st := range n.rel.recv {
		total += len(st.buffer)
	}
	return total
}

// shutdown cancels pending retransmission timers; called when the machine
// above tears down while packets are still in flight.
func (r *reliator) shutdown() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.down = true
	for _, st := range r.send {
		if st.timer != nil {
			st.timer.Stop()
		}
	}
}

// Shutdown stops the node's reliability timers (no-op when the transport
// is reliable). In-flight packets will not be retransmitted afterwards.
func (n *Node) Shutdown() {
	if n.rel != nil {
		n.rel.shutdown()
	}
}
