package converse

import (
	"fmt"
	"sync/atomic"

	"blueq/internal/pami"
)

// The rendezvous protocol for large messages (paper §III): instead of
// pushing a large payload eagerly, the sender ships a short header with
// the address of the source buffer (a registered memory region); the
// destination's dispatch callback issues an RDMA read (PAMI_Rget) to pull
// the payload, and on completion sends an acknowledgement packet so the
// sender can free the source buffer. One header, one pull, one ack per
// message, on every transport.
//
// The protocol keeps no timers and no duplicate filter of its own. Header
// and ack are ordinary PAMI sends, so on an unreliable transport the PAMI
// reliability sublayer delivers each exactly once and in order — it
// retransmits until acknowledged and drops duplicates by channel sequence
// before dispatch, without ever touching the packet's payload — and the
// pull is a direct memory copy. A header or ack the path keeps losing
// shows up where every other lost packet does: the pami retry counters
// and pami.RetryStreakObserver.

// RendezvousThreshold is the payload size (modelled bytes) above which
// inter-node sends switch from the eager path to rendezvous, matching the
// Charm++ BG/Q machine layer's cutover.
const RendezvousThreshold = 16 * 1024

// rendezvousHeader is the short packet that initiates the protocol.
type rendezvousHeader struct {
	msg    *Message           // the message itself (payload cleared for []byte)
	region *pami.MemoryRegion // registered source buffer ([]byte payloads)
	srcCtx int                // sender's context, where the ack goes
}

// rendezvousAck tells the sender its source buffer is free.
type rendezvousAck struct{}

// RendezvousStats counts protocol events; retrieved with
// Machine.RendezvousStats for tests and reports.
type RendezvousStats struct {
	Started   atomic.Int64 // headers sent
	Pulled    atomic.Int64 // RDMA reads completed at destinations
	Completed atomic.Int64 // acks received (source buffer freed)
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
// header with Send_immediate. The envelope travels with the header, as on
// the eager path: the destination PE releases it after executing it.
func (pe *PE) sendRendezvous(target *PE, msg *Message) error {
	m := pe.node.machine
	hdr := &rendezvousHeader{msg: msg, srcCtx: pe.local % len(pe.node.contexts)}
	if b, ok := msg.Payload.([]byte); ok {
		// Real zero-copy path: the payload stays in the registered region
		// until the destination pulls it.
		hdr.region = &pami.MemoryRegion{Data: b}
		msg.Payload = nil
	}
	m.rzvStats.Started.Add(1)
	err := pe.node.contexts[hdr.srcCtx].SendImmediate(target.node.rank, target.local, m.dispRendezvous, hdr, 64)
	if err != nil {
		// Inject refused: nobody downstream will release the envelope.
		msg.releaseFrom(pe.id)
	}
	return err
}

// onRendezvousHeader runs the destination side: pull the payload with an
// RDMA read, enqueue the message for the destination PE, and acknowledge.
func (n *SMPNode) onRendezvousHeader(src int, data any, bytes int) {
	m := n.machine
	hdr := data.(*rendezvousHeader)
	msg := hdr.msg
	// Any context can issue the Rget and the ack; use the receiving PE's.
	ctx := n.contexts[msg.destLocal%len(n.contexts)]
	if hdr.region != nil {
		buf := make([]byte, len(hdr.region.Data))
		if err := ctx.Rget(buf, hdr.region, 0, len(buf), nil); err != nil {
			panic(fmt.Sprintf("converse: rendezvous Rget failed: %v", err))
		}
		msg.Payload = buf
	}
	m.rzvStats.Pulled.Add(1)
	// The message holds the credit Send charged until it executes, like
	// an eager one; the header and the ack hold none.
	m.fromNetwork(msg, src)
	n.pes[msg.destLocal].enqueue(msg)
	// Acknowledge so the source buffer can be freed.
	if err := ctx.SendImmediate(src, hdr.srcCtx, m.dispRzvAck, rendezvousAck{}, 16); err != nil {
		panic(fmt.Sprintf("converse: rendezvous ack failed: %v", err))
	}
}

// onRendezvousAck completes the protocol at the sender.
func (n *SMPNode) onRendezvousAck(src int, data any, bytes int) {
	n.machine.rzvStats.Completed.Add(1)
}

// RendezvousStats exposes the protocol counters.
func (m *Machine) RendezvousStats() *RendezvousStats { return &m.rzvStats }
