package converse

import (
	"blueq/internal/aggregate"
)

// Converse wiring for the TRAM-style aggregation layer (internal/aggregate).
//
// Sender side: PE.Send diverts small remote messages into the node's
// per-destination batch buffers. Each message is charged its credit by
// Send before the append, like any remote message, and returns it when
// the destination PE executes it; the batch envelope is a plain PAMI send
// and holds none. So the window bounds the consumer's backlog identically
// whether messages travel alone or batched.
//
// Receiver side: one dispatch unpacks the whole batch and enqueues each
// inner message on its destination worker's scheduler queue — one PAMI
// inject, one reliability sequence number, and one dispatch cover N
// messages. The reliability sublayer sequences and dedups the batch as a
// single packet, so drop/dup repair needs no per-inner-message state.
//
// Envelope recycling: a batch's Items are pooled envelopes owned by the
// sending node's PEs. Unpacking enqueues them on destination schedulers,
// whose release-after-execute recycles each one to its owner's pool (a
// lockless §III-B remote free) — the batch container itself recycles
// separately through the aggregator's free list below. Items appended to
// a batch that is later Discarded (node halt) are dropped to the GC with
// the batch, the fail-stop fate of packets in a dead node's FIFOs.

// initAggregator builds the node's aggregator. The flush callback injects
// the batch through context 0 on dispAggBatch; flushes run on worker PEs
// (full, idle, explicit) or timer goroutines (MaxDelay), both of which the
// PAMI layer already tolerates — reliability retransmissions inject from
// timers the same way.
func (n *SMPNode) initAggregator(cfg aggregate.Config) {
	m := n.machine
	n.agg = aggregate.New(cfg, n.rank, m.cfg.Nodes, n.alloc, func(dst int, b *aggregate.Batch) {
		// A failed inject (endpoints shut down mid-flush) drops the batch,
		// the same fail-stop fate as packets in a dead node's FIFOs.
		_ = n.contexts[0].Send(dst, 0, m.dispAggBatch, b, b.WireBytes(), nil)
	})
}

// sendAggregated buffers one small remote message. Send has charged its
// credit already: a buffered message occupies its slot in the
// destination's backlog bound, which is why a parked sender's progress
// closure flushes this node's buffers.
func (pe *PE) sendAggregated(target *PE, msg *Message) error {
	if !pe.node.agg.Append(target.node.rank, pe.local, msg, msg.Bytes) {
		// Aggregator closed (shutdown or halt raced the send): take the
		// direct path, keeping the credit already held.
		return pe.sendDirect(target, msg)
	}
	return nil
}

// onAggBatch is the dispAggBatch dispatch callback: sort the batch into
// per-worker buckets, land each bucket on its worker's scheduler queue in
// one ring reservation and one wakeup, and hand the batch back to the
// sender's recycle pool. Each inner message returns its own credit when it
// executes — identical accounting to a message that travelled alone on
// dispConverse. buckets is scratch owned by the receiving PAMI context,
// whose dispatch runs under that context's lock, so it is reused from
// batch to batch. EnqueueBatch copies into ring slots before returning,
// so neither the buckets' reuse nor the Recycle below can race the
// consumer.
func (n *SMPNode) onAggBatch(buckets [][]*Message, src int, b *aggregate.Batch) {
	for _, it := range b.Items {
		msg := it.(*Message)
		n.machine.fromNetwork(msg, src)
		buckets[msg.destLocal] = append(buckets[msg.destLocal], msg)
	}
	for w, msgs := range buckets {
		if len(msgs) > 0 {
			n.pes[w].enqueueBatch(msgs)
			clear(msgs) // the scratch must not pin envelopes past their release
			buckets[w] = msgs[:0]
		}
	}
	if srcAgg := n.machine.nodes[src].agg; srcAgg != nil {
		srcAgg.Recycle(b)
	}
}

// Aggregator returns the node's aggregation layer, nil when Aggregation
// is not configured.
func (n *SMPNode) Aggregator() *aggregate.Aggregator { return n.agg }

// FlushAggregation flushes this node's open per-destination batch
// buffers. Element migration uses it so a message to the departing
// element buffered on its node reaches the wire before the home flips —
// a targeted form of Machine.FlushAggregation. No-op when aggregation is
// off.
func (n *SMPNode) FlushAggregation() {
	if n.agg != nil {
		n.agg.FlushAll(aggregate.FlushExplicit)
	}
}

// AggregationOn reports whether the aggregation layer is armed.
func (m *Machine) AggregationOn() bool {
	return len(m.nodes) > 0 && m.nodes[0].agg != nil
}

// FlushAggregation flushes every node's open batch buffers — the explicit
// flush barriers, checkpoints, and recovery quiescence waits need before
// they can trust in-flight accounting. No-op when aggregation is off.
func (m *Machine) FlushAggregation() {
	for _, node := range m.nodes {
		node.FlushAggregation()
	}
}
