package converse

import (
	"fmt"
	"log"
	"slices"
	"sync/atomic"
	"time"

	"blueq/internal/obs"
	"blueq/internal/pami"
)

// The rendezvous protocol for large messages (paper §III): instead of
// pushing a large payload eagerly, the sender ships a short header with
// the address of the source buffer (a registered memory region); the
// destination's dispatch callback issues an RDMA read (PAMI_Rget) to pull
// the payload, and on completion sends an acknowledgement packet so the
// sender can free the source buffer.
//
// On an unreliable transport the header or the ack can be lost, so the
// protocol optionally grows a timeout path (Config.RendezvousTimeout):
// the sender retransmits the header with exponential backoff until the
// ack arrives; the receiver dedups headers by sequence number (rzvWindow),
// re-acking duplicates without pulling or enqueueing the message twice.
// This is belt-and-suspenders over the PAMI reliability sublayer — the
// header and ack already travel through it — but it bounds recovery when
// an entire channel stalls and gives tests a converse-level knob.

// RendezvousThreshold is the payload size (modelled bytes) above which
// inter-node sends switch from the eager path to rendezvous, matching the
// Charm++ BG/Q machine layer's cutover.
const RendezvousThreshold = 16 * 1024

// DefaultRendezvousTimeout is the header-retransmission timeout armed by
// NewMachine when the transport is unreliable and the config does not set
// one. Deliberately coarse: the PAMI reliability sublayer recovers most
// losses first (RetryBase is milliseconds), so this path only fires when
// a transfer is truly stuck.
const DefaultRendezvousTimeout = 20 * time.Millisecond

// maxRzvRetries bounds header retransmissions before the transfer is
// abandoned and counted in RendezvousStats.Abandoned.
const maxRzvRetries = 8

// rendezvousHeader is the short packet that initiates the protocol.
type rendezvousHeader struct {
	msg    *Message           // scheduler message (payload cleared for []byte)
	region *pami.MemoryRegion // registered source buffer ([]byte payloads)
	seq    uint64
	srcCtx int
}

// rendezvousAck frees the sender-side buffer.
type rendezvousAck struct {
	seq uint64
}

// rzvPending is a sender-side in-flight transfer awaiting its ack, only
// tracked when RendezvousTimeout > 0.
type rzvPending struct {
	hdr     *rendezvousHeader
	ctx     *pami.Context // sending context for retransmission
	dstRank int
	dstCtx  int
	tries   int
	backoff time.Duration
	timer   *time.Timer
}

// rzvDedupWindow is how many header sequence numbers a receiver remembers
// per (source PE, destination PE) pair. Headers ride the in-order PAMI
// channel and one PE numbers its transfers in send order, so a pair's
// first arrivals come in increasing sequence; the window is slack for
// that, not a bound on the transfers in flight.
const rzvDedupWindow = 64

// rzvWindow is the receiver-side duplicate filter for one (source PE,
// destination PE) pair: the newest rzvDedupWindow sequence numbers seen,
// and a floor at or below which every number counts as seen — a
// retransmission that late is of a transfer long since delivered. Memory
// per pair is O(window) however many transfers cross it.
type rzvWindow struct {
	floor uint64
	seen  []uint64 // ascending, all above floor
}

// dup records seq and reports whether it had been seen before.
func (w *rzvWindow) dup(seq uint64) bool {
	if seq <= w.floor {
		return true
	}
	i, found := slices.BinarySearch(w.seen, seq)
	if found {
		return true
	}
	w.seen = slices.Insert(w.seen, i, seq)
	if len(w.seen) > rzvDedupWindow {
		w.floor = w.seen[0]
		w.seen = w.seen[:copy(w.seen, w.seen[1:])]
	}
	return false
}

// RendezvousStats counts protocol events; retrieved with
// Machine.RendezvousStats for tests and reports.
type RendezvousStats struct {
	Started    atomic.Int64 // headers sent
	Pulled     atomic.Int64 // RDMA reads completed at destinations
	Completed  atomic.Int64 // acks received (source buffer freed)
	Retried    atomic.Int64 // headers retransmitted on timeout
	DupHeaders atomic.Int64 // duplicate headers suppressed at receivers
	Abandoned  atomic.Int64 // transfers dropped after maxRzvRetries
}

// registerRendezvous wires the header and ack dispatch ids on every
// context of every node. Called from NewMachine.
func (m *Machine) registerRendezvous() {
	for r := 0; r < m.cfg.Nodes; r++ {
		node := m.nodes[r]
		for _, ctx := range node.contexts {
			ctx.RegisterDispatch(m.dispRendezvous, node.onRendezvousHeader)
			ctx.RegisterDispatch(m.dispRzvAck, node.onRendezvousAck)
		}
	}
}

// sendRendezvous runs the sender side: register the payload (a real
// memory region for []byte payloads; a reference otherwise) and push the
// header with Send_immediate.
func (pe *PE) sendRendezvous(target *PE, msg *Message) error {
	m := pe.node.machine
	hdr := &rendezvousHeader{seq: m.rzvSeq.Add(1), srcCtx: pe.local % len(pe.node.contexts)}
	// The header outlives the send: retransmission timers hold it until
	// the ack, possibly long after the destination executed (and recycled)
	// the envelope. Snapshot into an unpooled heap copy owned by the
	// protocol and release the caller's reference now — a retransmit must
	// never carry a pointer into the envelope pool.
	snap := &Message{}
	snap.CopyFrom(msg)
	if b, ok := msg.Payload.([]byte); ok {
		// Real zero-copy path: the payload stays in the registered region
		// until the destination pulls it.
		hdr.region = &pami.MemoryRegion{Data: b}
		snap.Payload = nil
	}
	hdr.msg = snap
	msg.releaseFrom(pe.id)
	m.rzvStats.Started.Add(1)
	ctx := pe.node.contexts[hdr.srcCtx]
	m.trackRendezvous(hdr, ctx, target.node.rank, target.local)
	return ctx.SendImmediate(target.node.rank, target.local, m.dispRendezvous, hdr, 64)
}

// trackRendezvous records an in-flight transfer and arms its timeout.
// No-op when RendezvousTimeout is zero (reliable transports).
func (m *Machine) trackRendezvous(hdr *rendezvousHeader, ctx *pami.Context, dstRank, dstCtx int) {
	if m.cfg.RendezvousTimeout <= 0 {
		return
	}
	p := &rzvPending{
		hdr:     hdr,
		ctx:     ctx,
		dstRank: dstRank,
		dstCtx:  dstCtx,
		backoff: m.cfg.RendezvousTimeout,
	}
	m.rzvMu.Lock()
	m.rzvPend[hdr.seq] = p
	seq := hdr.seq
	p.timer = time.AfterFunc(p.backoff, func() { m.retryRendezvous(seq) })
	m.rzvMu.Unlock()
}

// retryRendezvous fires when a transfer's ack has not arrived in time:
// retransmit the header (the receiver dedups) with doubled backoff, up to
// maxRzvRetries attempts.
func (m *Machine) retryRendezvous(seq uint64) {
	m.rzvMu.Lock()
	p := m.rzvPend[seq]
	if p == nil || m.stopped.Load() {
		m.rzvMu.Unlock()
		return
	}
	p.tries++
	if p.tries > maxRzvRetries {
		delete(m.rzvPend, seq)
		m.rzvMu.Unlock()
		m.rzvStats.Abandoned.Add(1)
		m.reportRzvAbandon(p.dstRank, p.hdr.msg.Bytes)
		return
	}
	p.backoff *= 2
	const backoffCap = time.Second
	if p.backoff > backoffCap {
		p.backoff = backoffCap
	}
	p.timer = time.AfterFunc(p.backoff, func() { m.retryRendezvous(seq) })
	m.rzvMu.Unlock()
	m.rzvStats.Retried.Add(1)
	_ = p.ctx.SendImmediate(p.dstRank, p.dstCtx, m.dispRendezvous, p.hdr, 64)
}

// reportRzvAbandon surfaces an abandoned transfer — data silently lost
// after the retry budget. The loss is counted and logged at most once a
// second, so a dead channel's worth of abandonments cannot drown the run's
// output.
func (m *Machine) reportRzvAbandon(dstRank, bytes int) {
	if obs.On() {
		mRzvAbandon.Inc(dstRank)
	}
	now := time.Now().UnixNano()
	last := m.rzvAbandonLogNS.Load()
	if now-last >= time.Second.Nanoseconds() && m.rzvAbandonLogNS.CompareAndSwap(last, now) {
		log.Printf("converse: rendezvous transfer to node %d (%d bytes) abandoned after %d retries",
			dstRank, bytes, maxRzvRetries)
	}
}

// completeRendezvous runs at the sender when the ack arrives. Returns
// false for a duplicate ack of an already-completed transfer.
func (m *Machine) completeRendezvous(seq uint64) bool {
	if m.cfg.RendezvousTimeout <= 0 {
		return true // no tracking: every ack is first (reliable transport)
	}
	m.rzvMu.Lock()
	p := m.rzvPend[seq]
	if p == nil {
		m.rzvMu.Unlock()
		return false
	}
	delete(m.rzvPend, seq)
	if p.timer != nil {
		p.timer.Stop()
	}
	m.rzvMu.Unlock()
	return true
}

// cancelRendezvousTimers stops every pending transfer's timer; called
// from Shutdown so no retransmission fires into a stopping machine.
func (m *Machine) cancelRendezvousTimers() {
	if m.cfg.RendezvousTimeout <= 0 {
		return
	}
	m.rzvMu.Lock()
	for seq, p := range m.rzvPend {
		if p.timer != nil {
			p.timer.Stop()
		}
		delete(m.rzvPend, seq)
	}
	m.rzvMu.Unlock()
}

// onRendezvousHeader runs the destination side: pull the payload with an
// RDMA read, enqueue the message for the destination PE, and acknowledge.
// With timeouts armed, duplicate headers (retransmissions) are suppressed
// by sequence number and re-acked without a second pull or enqueue.
func (n *SMPNode) onRendezvousHeader(src int, data any, bytes int) {
	m := n.machine
	hdr := data.(*rendezvousHeader)
	msg := hdr.msg
	if m.cfg.RendezvousTimeout > 0 {
		pair := [2]int{msg.SrcPE, n.pes[msg.destLocal].id}
		m.rzvMu.Lock()
		w := m.rzvSeen[pair]
		dup := w.dup(hdr.seq)
		m.rzvSeen[pair] = w
		m.rzvMu.Unlock()
		if dup {
			m.rzvStats.DupHeaders.Add(1)
			// Our ack was lost or late: re-ack so the sender stops.
			ctx := n.contexts[msg.destLocal%len(n.contexts)]
			_ = ctx.SendImmediate(src, hdr.srcCtx, m.dispRzvAck, rendezvousAck{seq: hdr.seq}, 16)
			return
		}
	}
	if hdr.region != nil {
		buf := make([]byte, len(hdr.region.Data))
		// Any context can issue the Rget; use the receiving PE's.
		ctx := n.contexts[msg.destLocal%len(n.contexts)]
		if err := ctx.Rget(buf, hdr.region, 0, len(buf), nil); err != nil {
			panic(fmt.Sprintf("converse: rendezvous Rget failed: %v", err))
		}
		// Fresh unpooled copy per delivery: the header (and hdr.msg) stays
		// with the protocol for possible retransmits and must not alias the
		// enqueued message's payload slot.
		fresh := &Message{}
		fresh.CopyFrom(msg)
		fresh.Payload = buf
		msg = fresh
	}
	m.rzvStats.Pulled.Add(1)
	n.pes[msg.destLocal].enqueue(msg)
	// Acknowledge so the source buffer can be freed.
	ctx := n.contexts[msg.destLocal%len(n.contexts)]
	if err := ctx.SendImmediate(src, hdr.srcCtx, m.dispRzvAck, rendezvousAck{seq: hdr.seq}, 16); err != nil {
		panic(fmt.Sprintf("converse: rendezvous ack failed: %v", err))
	}
}

// onRendezvousAck completes the protocol at the sender.
func (n *SMPNode) onRendezvousAck(src int, data any, bytes int) {
	m := n.machine
	ack := data.(rendezvousAck)
	if m.completeRendezvous(ack.seq) {
		m.rzvStats.Completed.Add(1)
	}
}

// RendezvousStats exposes the protocol counters.
func (m *Machine) RendezvousStats() *RendezvousStats { return &m.rzvStats }
