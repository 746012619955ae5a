package converse

import (
	"fmt"

	"blueq/internal/obs"
)

// Scalable broadcast: instead of the origin sending NumPEs individual
// messages, the message travels down a k-ary spanning tree over the nodes
// and fans out to the local PEs of each node by pointer exchange — the
// way Charm++ broadcasts avoid serializing on the root's injection FIFOs.

// broadcastFanout is the tree arity over nodes.
const broadcastFanout = 4

// bcastMsg wraps the user message with tree-routing state.
type bcastMsg struct {
	inner *Message
	root  int // origin node rank
}

// registerBroadcast installs the internal tree-forwarding handler; called
// from NewMachine before any user handler is registered.
func (m *Machine) registerBroadcast() {
	m.bcastHandler = m.RegisterHandler(func(pe *PE, msg *Message) {
		pe.node.onBroadcast(pe, msg.Payload.(*bcastMsg))
	})
}

// Broadcast delivers a copy of the message value to every PE, including
// this one (CmiSyncBroadcastAllFn), through a spanning tree over nodes.
// The payload is shared across all copies; handlers must treat broadcast
// payloads as read-only. Broadcast consumes the caller's reference: the
// root message is refcounted down the tree — each node's fan-out takes a
// reference instead of copying the struct per destination — and recycles
// to the root PE's pool when the last leaf drops it.
func (pe *PE) Broadcast(msg *Message) error {
	msg.SrcPE = pe.id
	if obs.On() {
		mBcastRoot.Inc(pe.id)
	}
	pe.node.onBroadcast(pe, &bcastMsg{inner: msg, root: pe.node.rank})
	return nil
}

// onBroadcast forwards to child nodes in the tree and delivers to every
// local PE. It owns one reference on bm.inner (transferred by Broadcast
// at the root, carried inside the forwarded envelope's payload at inner
// nodes): each child forward retains one more, and the local fan-out
// delivers pooled clones that share inner's payload, so releasing the
// owned reference at the end leaves inner alive exactly as long as some
// subtree still needs it.
func (n *SMPNode) onBroadcast(pe *PE, bm *bcastMsg) {
	m := n.machine
	n.forwardBroadcast(pe, bm, (n.rank-bm.root+len(m.nodes))%len(m.nodes))
	// Local fan-out: one pooled clone per worker PE on this node, sharing
	// inner's payload. CopyFrom leaves the clone's seq/enqNS bookkeeping
	// zeroed — the old wholesale struct copy inherited the parent's
	// enqueue timestamp and skewed the deliver-latency histogram.
	for _, local := range n.pes {
		clone := pe.NewMessage()
		clone.CopyFrom(bm.inner)
		clone.destLocal = local.local
		local.enqueue(clone)
	}
	if obs.On() {
		mBcastDeliver.Add(pe.id, int64(len(n.pes)))
	}
	bm.inner.releaseFrom(pe.id)
}

// forwardBroadcast sends bm to the tree children of the node at relative
// position rel. A halted child cannot forward, so its parent adopts the
// child's subtree: the broadcast still reaches every live node.
func (n *SMPNode) forwardBroadcast(pe *PE, bm *bcastMsg, rel int) {
	m := n.machine
	nodes := len(m.nodes)
	for k := 1; k <= broadcastFanout; k++ {
		childRel := rel*broadcastFanout + k
		if childRel >= nodes {
			break
		}
		child := (bm.root + childRel) % nodes
		if m.nodes[child].dead.Load() {
			n.forwardBroadcast(pe, bm, childRel)
			continue
		}
		fwd := pe.NewMessage()
		fwd.CopyFrom(bm.inner)
		fwd.Handler = m.bcastHandler
		fwd.Payload = &bcastMsg{inner: bm.inner.Retain(), root: bm.root}
		fwd.destLocal = 0
		// Straight to the child's first PE, never through the aggregator:
		// a collective completes when its slowest leg lands.
		n.charge(child)
		if err := pe.sendDirect(m.nodes[child].pes[0], fwd); err != nil {
			panic(fmt.Sprintf("converse: broadcast forward to node %d: %v", child, err))
		}
		if obs.On() {
			mBcastForward.Inc(pe.id)
		}
	}
}
