package pami

import (
	"slices"
	"sync"
	"sync/atomic"
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
//   - eager traffic from node A to node B travels on one channel per
//     reception FIFO of B, and every packet carries its (A, B, FIFO)
//     channel's sequence number (relPacket);
//   - the receiver delivers each channel strictly in sequence order —
//     out-of-order arrivals are buffered, duplicates (retransmissions,
//     transport dups) are suppressed by the cumulative sequence horizon —
//     so FIFO order and exactly-once delivery both survive drops, dups,
//     and delays;
//   - the receiver acknowledges the highest in-order sequence delivered,
//     cumulatively and idempotently. The ack rides on the next data packet
//     toward the sender (relPacket.ack). A channel sends a standalone
//     relAck, itself unreliable, only when an Advance polls no new data on
//     it while the ack is still owed, or after ackEvery deliveries without
//     one;
//   - the sender re-injects the oldest unacknowledged packets, at most
//     retryBudget a round, on a timer with exponential backoff until they
//     are acknowledged; acks that return meanwhile pace the re-injection
//     of the rest of the stalled window.
//
// A receive channel is touched only by the context polling its FIFO,
// under that context's lock: a gap's buffered run is dispatched before the
// FIFO is polled again, so no other context can overtake it, and there is
// no node-wide lock. Senders are any PE, the aggregator's timer and the
// retransmit timers, so each send channel keeps its own lock. A sending
// thread piggybacks an owed ack by reading the receive channel's two
// atomics, horizon and owed.
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

const (
	// ackEvery is how many packets a receive channel delivers with its ack
	// unsettled before it acks at once: a one-way stream that keeps every
	// Advance busy still trims its sender's window.
	ackEvery = 16
	// retryBudget caps how many of a channel's oldest unacknowledged
	// packets one retry round — a timer fire or a kick — re-injects. The
	// receiver is waiting for the head of the window; re-injecting the
	// whole window every backoff outruns a slow path and floods its
	// queues, while the head's ack paces the rest (sendChan.recoverTo).
	retryBudget = 8
)

// RetryStreakObserver is notified when the (src, dst) channel's
// consecutive-retry streak reaches a multiple of RetryStreakThreshold.
// Called outside the channel lock, possibly from a timer goroutine; it
// must not block and must not call back into KickRetransmit
// synchronously.
type RetryStreakObserver func(src, dst, streak int)

// relPacket wraps an eager active message with its channel sequence
// number. A nonzero ack piggybacks a cumulative ack: the packet's sender
// has delivered every sequence number up to ack on its receive channel
// for FIFO ackFIFO, the traffic the packet's destination sent it there.
type relPacket struct {
	seq     uint64
	ack     uint64
	ackFIFO int
	am      amPacket
}

// relAck is a standalone cumulative ack: its sender has delivered every
// sequence number <= cum on the channel whose FIFO the ack packet travels
// on. Acks are unreliable and idempotent.
type relAck struct {
	cum uint64
}

// sendChan is the sender half of one (peer, FIFO) channel, under its own
// lock. window is the retransmission window: the unacknowledged packets,
// oldest first — sequence numbers nextSeq-len(window)+1 through nextSeq —
// each stamped and ready to re-inject as is.
// timer is the channel's one retransmission timer for its whole life; no
// ack stops or resets it. gen bumps on every arm, fire and cancel and
// armedGen is the gen of the last arm, so the timer is pending while they
// are equal and a fire finding them unequal is stale. armedBase is the
// window base at the last arm.
// A retry round opens a recovery: every packet up to recoverTo (nextSeq at
// the round) is suspect, resentTo is the last one re-injected and burst
// how many the last round re-injected. Acks then pace the rest (resend):
// one covering resentTo re-injects the next suspects at once, twice as
// many as the round before, and one short of it re-offers the oldest, the
// hole the receiver is stuck at. A stalled window drains in round trips,
// not backoffs, and nothing is re-injected without an ack asking for it.
type sendChan struct {
	mu        sync.Mutex
	peer      int
	nextSeq   uint64 // last sequence number assigned
	window    []torus.Packet
	timer     *time.Timer
	gen       uint64
	armedGen  uint64
	armedBase uint64
	backoff   time.Duration
	streak    int // consecutive retry rounds since the last ack
	recoverTo uint64
	resentTo  uint64
	burst     int
	scratch   sumScratch
}

// base is the cumulative ack horizon: every sequence number at or below it
// is acknowledged.
func (sc *sendChan) base() uint64 { return sc.nextSeq - uint64(len(sc.window)) }

// recvChan is the receiver half of one (peer, FIFO) channel, owned by the
// context polling the FIFO. next is the next sequence number to deliver;
// buffer holds out-of-order arrivals awaiting their predecessors; run
// counts deliveries since the ack last settled; polled (an arrival this
// Advance) and listed (on the context's owing list) drive the standalone
// ack. horizon (next-1) and owed (an arrival awaits its ack) are read by
// sending threads that piggyback the ack. horizon is stored before owed is
// set, so a sender that clears owed reads a horizon covering every
// arrival that set it.
type recvChan struct {
	peer, fifo     int
	next           uint64
	buffer         map[uint64]amPacket
	run            int
	polled, listed bool
	horizon        atomic.Uint64
	owed           atomic.Bool
}

// peerChans holds one node's channels with one peer, one per FIFO.
type peerChans struct {
	send []sendChan
	recv []recvChan
}

// takeAck claims an ack one of the receive channels from this peer owes,
// for a data packet toward the peer to carry; 0 when none is owed. A
// channel that has delivered nothing yet leaves its stale ack to go
// standalone.
func (pc *peerChans) takeAck() (cum uint64, fifo int) {
	for f := range pc.recv {
		rc := &pc.recv[f]
		if rc.owed.Load() && rc.horizon.Load() != 0 && rc.owed.CompareAndSwap(true, false) {
			return rc.horizon.Load(), f
		}
	}
	return 0, 0
}

// ReliabilityStats counts protocol events for tests and reports.
type ReliabilityStats struct {
	Retries      int64 // packets re-injected: retry rounds and the recoveries acks pace
	Redelivered  int64 // duplicate arrivals suppressed
	Reordered    int64 // out-of-order arrivals buffered
	Parked       int64 // out-of-order arrivals refused at the reorder cap
	AcksSent     int64 // standalone acks; piggybacked ones are not counted
	AcksReceived int64
}

// reliator owns the reliability state of one node: its channels with
// every peer, built on first use.
type reliator struct {
	node      *Node
	base      time.Duration // RetryBase at construction
	max       time.Duration // RetryMax at construction
	rcap      int           // reorder buffer cap per channel
	streakThr int           // RetryStreakThreshold at construction
	fifos     int           // channels per peer: the node's context count

	peers    []atomic.Pointer[peerChans] // by peer rank
	buffered atomic.Int64                // out-of-order packets held, all channels
	down     atomic.Bool                 // Shutdown called: stop arming timers

	retries, redelivered, reordered, parked, acksSent, acksReceived atomic.Int64
}

func newReliator(n *Node, reorderCap, fifos int) *reliator {
	return &reliator{
		node:      n,
		base:      RetryBase,
		max:       RetryMax,
		rcap:      reorderCap,
		streakThr: RetryStreakThreshold,
		fifos:     fifos,
		peers:     make([]atomic.Pointer[peerChans], len(n.client.nodes)),
	}
}

// peer returns the channels with a peer, building them on first use.
func (r *reliator) peer(rank int) *peerChans {
	if pc := r.peers[rank].Load(); pc != nil {
		return pc
	}
	pc := &peerChans{send: make([]sendChan, r.fifos), recv: make([]recvChan, r.fifos)}
	for f := range pc.send {
		pc.send[f].peer = rank
		pc.recv[f].peer, pc.recv[f].fifo, pc.recv[f].next = rank, f, 1
	}
	if r.peers[rank].CompareAndSwap(nil, pc) {
		return pc
	}
	return r.peers[rank].Load()
}

// existing returns the channels with a peer, nil if none were built (or
// the rank is out of range).
func (r *reliator) existing(rank int) *peerChans {
	if rank < 0 || rank >= len(r.peers) {
		return nil
	}
	return r.peers[rank].Load()
}

// ReliabilityStats returns a snapshot of the node's reliability counters,
// zero when the transport is reliable and the sublayer is disarmed.
func (n *Node) ReliabilityStats() ReliabilityStats {
	r := n.rel
	if r == nil {
		return ReliabilityStats{}
	}
	return ReliabilityStats{
		Retries:      r.retries.Load(),
		Redelivered:  r.redelivered.Load(),
		Reordered:    r.reordered.Load(),
		Parked:       r.parked.Load(),
		AcksSent:     r.acksSent.Load(),
		AcksReceived: r.acksReceived.Load(),
	}
}

// sendEager assigns the next channel sequence number, piggybacks an ack
// owed to the peer, records the packet for retransmission, and injects it.
func (r *reliator) sendEager(dstNode, fifo, bytes int, am amPacket) error {
	pc := r.peer(dstNode)
	sc := &pc.send[fifo]
	sc.mu.Lock()
	sc.nextSeq++
	pl := relPacket{seq: sc.nextSeq, am: am}
	pl.ack, pl.ackFIFO = pc.takeAck()
	p := torus.Packet{
		Type:    torus.MemoryFIFO,
		Dst:     dstNode,
		Bytes:   bytes,
		FIFO:    fifo,
		Payload: pl,
	}
	// Stamp before recording: retransmissions reuse the stored packet, so
	// they carry the identical checksum (and the ack, stale by then and
	// harmless).
	r.node.stamp(&p, &sc.scratch)
	sc.window = append(sc.window, p)
	r.armLocked(sc)
	sc.mu.Unlock()
	return r.node.ep.Inject(p)
}

// armLocked ensures the channel's retransmit timer is pending.
func (r *reliator) armLocked(sc *sendChan) {
	if (sc.timer != nil && sc.armedGen == sc.gen) || r.down.Load() {
		return
	}
	if sc.backoff == 0 {
		sc.backoff = r.base
	}
	sc.gen++
	sc.armedGen, sc.armedBase = sc.gen, sc.base()
	if sc.timer == nil {
		sc.timer = time.AfterFunc(sc.backoff, func() { r.fire(sc) })
	} else {
		sc.timer.Reset(sc.backoff)
	}
}

// fire is the retransmit timer's expiry. An empty window idles the timer
// until the next send arms it; a window an ack advanced since the arm
// re-arms at RetryBase without retransmitting; a stalled one is
// retransmitted. So a lost packet is re-sent one to two backoffs after it
// left, however many stale acks arrive.
func (r *reliator) fire(sc *sendChan) {
	sc.mu.Lock()
	if r.down.Load() || sc.armedGen != sc.gen {
		sc.mu.Unlock() // stale: cancelled since it was armed
		return
	}
	sc.gen++
	switch {
	case len(sc.window) == 0:
		sc.backoff = 0
	case sc.base() != sc.armedBase:
		sc.backoff = r.base
		r.armLocked(sc)
	default:
		sc.mu.Unlock()
		r.retry(sc)
		return
	}
	sc.mu.Unlock()
}

// retry re-injects the oldest unacknowledged packets on the channel, at
// most retryBudget of them, doubling the backoff, until acks drain it.
func (r *reliator) retry(sc *sendChan) {
	sc.mu.Lock()
	if r.down.Load() {
		sc.mu.Unlock()
		return
	}
	if len(sc.window) == 0 {
		sc.backoff = 0
		sc.mu.Unlock()
		return
	}
	n := min(retryBudget, len(sc.window))
	sc.recoverTo, sc.resentTo, sc.burst = sc.nextSeq, sc.base()+uint64(n), n
	packets := r.oldestLocked(sc, n)
	sc.streak++
	streak := sc.streak
	sc.backoff = min(2*sc.backoff, r.max)
	r.armLocked(sc)
	sc.mu.Unlock()
	// Surface sustained starvation: every streakThr consecutive
	// unacknowledged rounds, tell the observer (outside the lock — the
	// handler may take its own locks). Modulo, not ==, so a channel that
	// stays starved keeps re-raising suspicion.
	if streak%r.streakThr == 0 {
		if f := r.node.client.streakObs.Load(); f != nil {
			if obs.On() {
				mRelStreak.Inc(r.node.rank)
			}
			(*f)(r.node.rank, sc.peer, streak)
		}
	}
	r.reinject(packets)
}

// oldestLocked copies out the channel's n oldest unacknowledged packets
// for re-injection, counted as retries. Copied: the injects run outside
// the lock, where an ack may shift the window. Oldest first, so a lossless
// window is rebuilt with minimal receiver buffering.
func (r *reliator) oldestLocked(sc *sendChan, n int) []torus.Packet {
	r.retries.Add(int64(n))
	return slices.Clone(sc.window[:n])
}

// reinject injects packets oldestLocked copied out.
func (r *reliator) reinject(packets []torus.Packet) {
	if len(packets) == 0 {
		return
	}
	if obs.On() {
		mRelRetry.Add(r.node.rank, int64(len(packets)))
	}
	for _, p := range packets {
		_ = r.node.ep.Inject(p)
	}
}

// onPacket runs in the Advance of the context polling the packet's FIFO,
// under its lock. It applies a piggybacked ack, then delivers the packet
// and any buffered successors it releases, in sequence order, straight to
// the context's dispatch table.
func (r *reliator) onPacket(ctx *Context, src, fifo int, pl *relPacket) {
	if pl.ack != 0 {
		r.onAck(src, pl.ackFIFO, pl.ack)
	}
	rc := &r.peer(src).recv[fifo]
	rc.polled = true
	if !rc.listed {
		rc.listed = true
		ctx.owing = append(ctx.owing, rc)
	}
	switch {
	case pl.seq < rc.next:
		// Already delivered: a retransmission or a transport duplicate.
		// The sender missed the ack that covered it, so owe another.
		r.redelivered.Add(1)
		if obs.On() {
			mRelRedeliver.Inc(r.node.rank)
		}
		rc.owed.Store(true)
		return
	case pl.seq > rc.next:
		rc.owed.Store(true) // a stale ack: it advances nothing but ends a retry streak
		if _, dup := rc.buffer[pl.seq]; dup {
			r.redelivered.Add(1)
			if obs.On() {
				mRelRedeliver.Inc(r.node.rank)
			}
			return
		}
		if len(rc.buffer) >= r.rcap {
			// Reorder buffer at its cap: refuse the packet — neither
			// buffered nor covered by the next cumulative ack — and let
			// the sender's retransmission timer re-offer it after the gap
			// closes. Receiver memory stays bounded; delivery stays
			// exactly-once (the horizon dedups any extra copies).
			r.parked.Add(1)
			mRelParked.Inc(r.node.rank)
			return
		}
		r.reordered.Add(1)
		if obs.On() {
			mRelReorder.Inc(r.node.rank)
		}
		if rc.buffer == nil {
			rc.buffer = make(map[uint64]amPacket)
		}
		rc.buffer[pl.seq] = pl.am
		r.buffered.Add(1)
		return
	}
	// In sequence: deliver it plus any buffered successors.
	r.deliver(ctx, rc, pl.am)
	for len(rc.buffer) > 0 {
		am, ok := rc.buffer[rc.next]
		if !ok {
			break
		}
		delete(rc.buffer, rc.next)
		r.buffered.Add(-1)
		r.deliver(ctx, rc, am)
	}
	if rc.run >= ackEvery {
		r.sendAck(ctx, rc)
	}
}

// deliver moves the channel's horizon past one packet, marks its ack owed
// and dispatches it. The horizon is published before the handler runs, so
// a reply the handler sends carries the ack.
func (r *reliator) deliver(ctx *Context, rc *recvChan, am amPacket) {
	rc.horizon.Store(rc.next)
	rc.next++
	if !rc.owed.Swap(true) {
		rc.run = 0 // reverse data carried the ack since the last delivery
	}
	rc.run++
	ctx.dispatchAM(rc.peer, am)
}

// settleAcks runs at the end of an Advance while the context has channels
// owing acks: a channel that polled no new data this Advance sends its ack
// standalone, unless reverse data has carried it, and leaves the list. One
// still listed opens the node's Arrivals gate: a sender parked watching the
// node then runs the quiet Advance that settles it.
func (r *reliator) settleAcks(ctx *Context) {
	kept := ctx.owing[:0]
	for _, rc := range ctx.owing {
		if rc.polled {
			rc.polled = false
			kept = append(kept, rc)
			continue
		}
		rc.listed = false
		if rc.owed.Load() {
			r.sendAck(ctx, rc)
		}
	}
	clear(ctx.owing[len(kept):])
	if ctx.owing = kept; len(kept) > 0 {
		r.node.arrivals.Open()
	}
}

// sendAck sends the channel's cumulative acknowledgement on its own.
// Acks are unreliable: a lost ack is repaired by the retransmission it
// fails to suppress, which the receiver dedups and re-acks.
func (r *reliator) sendAck(ctx *Context, rc *recvChan) {
	rc.owed.Store(false)
	rc.run = 0
	r.acksSent.Add(1)
	if obs.On() {
		mRelAckSent.Inc(r.node.rank)
	}
	p := torus.Packet{
		Type:    torus.MemoryFIFO,
		Dst:     rc.peer,
		Bytes:   ackBytes,
		FIFO:    rc.fifo,
		Payload: relAck{cum: rc.next - 1},
	}
	r.node.stamp(&p, &ctx.scratch)
	_ = r.node.ep.Inject(p)
}

// ackBytes is the modelled wire size of a reliability acknowledgement.
const ackBytes = 16

// onAck runs on the sending node, for a standalone or a piggybacked ack:
// every packet at or below cum on the (from, fifo) channel is delivered,
// so drop it from the retransmission window.
func (r *reliator) onAck(from, fifo int, cum uint64) {
	pc := r.existing(from)
	if pc == nil {
		return
	}
	sc := &pc.send[fifo]
	sc.mu.Lock()
	// Any ack arriving proves the round trip works right now, whatever
	// it covers — clear the consecutive-retry streak.
	sc.streak = 0
	// The window starts at nextSeq-len+1, so cum covers its first
	// cum-(nextSeq-len) slots: none for a stale or duplicate ack (or one
	// for a window DropPeer cleared), and at most all of them — an ack
	// from beyond nextSeq (a misrouted one, possible with the CRC
	// disarmed) is clamped to the window.
	base := sc.base()
	if cum > base {
		sc.window = slices.Delete(sc.window, 0, int(min(cum-base, uint64(len(sc.window)))))
	}
	var packets []torus.Packet
	if cum >= base {
		packets = r.resendLocked(sc)
	}
	sc.mu.Unlock()
	r.reinject(packets)
}

// resendLocked is a recovery's answer to a current ack, nil outside one.
// If the packets the last round re-injected are all acknowledged, it takes
// up to twice as many of the remaining suspects, oldest first and at most
// a reorder buffer's worth; otherwise it re-offers the oldest
// unacknowledged packet, the hole the receiver is stuck at.
func (r *reliator) resendLocked(sc *sendChan) []torus.Packet {
	base := sc.base()
	if base >= sc.recoverTo || r.down.Load() {
		return nil
	}
	n := 1
	if base >= sc.resentTo {
		n = int(min(uint64(min(2*sc.burst, r.rcap)), sc.recoverTo-base))
		sc.resentTo, sc.burst = base+uint64(n), n
	}
	return r.oldestLocked(sc, n)
}

// dropPeer abandons the send channels to a peer declared failed: pending
// retransmissions to a silenced endpoint can never be acknowledged, so
// each window is cleared and its timer's next fire idles it. The channel
// state stays registered; a straggler send would re-arm it harmlessly.
func (r *reliator) dropPeer(dstNode int) {
	pc := r.existing(dstNode)
	if pc == nil {
		return
	}
	for f := range pc.send {
		sc := &pc.send[f]
		sc.mu.Lock()
		sc.window = slices.Delete(sc.window, 0, len(sc.window))
		sc.backoff = 0
		sc.streak = 0
		sc.mu.Unlock()
	}
}

// kick collapses the backoff of every channel to the peer and retransmits
// the head of each pending window immediately. The fault-tolerance layer
// calls it through Node.KickRetransmit after rerouting around a link
// fault: the packets the dead link ate are sitting in the windows with a
// backoff that may have climbed to RetryMax, and waiting it out would
// serialize the reroute behind the slowest timer.
func (r *reliator) kick(dstNode int) {
	pc := r.existing(dstNode)
	if pc == nil {
		return
	}
	for f := range pc.send {
		sc := &pc.send[f]
		sc.mu.Lock()
		sc.gen++ // cancel the pending timer: retry re-arms it at RetryBase
		sc.backoff = 0
		sc.mu.Unlock()
		r.retry(sc)
	}
}

// KickRetransmit immediately retransmits the oldest unacknowledged packets
// to the peer and resets the channels' backoff, as if the first retry
// timer had just fired (no-op when the transport is reliable or the
// channels are idle). Call it after the route to the peer changed — newly
// healed or salted around a fault — so delivery resumes at once instead
// of after the accumulated exponential backoff.
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
	return int(n.rel.buffered.Load())
}

// shutdown cancels pending retransmission timers; called when the machine
// above tears down while packets are still in flight. A channel arming
// after the flag is set sees it under its own lock and stays idle.
func (r *reliator) shutdown() {
	r.down.Store(true)
	for i := range r.peers {
		pc := r.peers[i].Load()
		if pc == nil {
			continue
		}
		for f := range pc.send {
			sc := &pc.send[f]
			sc.mu.Lock()
			if sc.timer != nil {
				sc.timer.Stop()
			}
			sc.mu.Unlock()
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
