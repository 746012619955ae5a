package converse

import (
	"sync/atomic"

	"blueq/internal/mempool"
)

// Pooled message-envelope lifecycle (paper §III-B).
//
// Every PE owns a typed envelope pool; the steady-state send→execute path
// allocates nothing. The ownership contract:
//
//   - pe.NewMessage() returns an envelope with one reference, owned by
//     pe's pool. It must be called from pe's scheduler goroutine (init
//     closures and handlers qualify); other goroutines use
//     Machine.NewMessage, which returns an unpooled heap envelope.
//   - Send / Broadcast consume the caller's reference, on every path —
//     success, shed, and error. After handing a message to the runtime
//     the caller must not touch it again unless it took its own
//     reference with Retain first.
//   - The scheduler releases the executing reference after the handler
//     returns (release-after-execute), and after the deferred
//     flow-control credit release, so the credit never outlives its
//     envelope accounting. A handler that wants the message (or its
//     Payload) past its own return calls msg.Retain() and later
//     msg.Release().
//   - When the last reference drops, the envelope is scrubbed — every
//     public field plus the internal seq/enqNS/viaNet/destLocal/fromNode
//     bookkeeping — and recycled to its owner's pool. A release on a
//     non-owning PE is the paper's lockless remote free: one bounded
//     load-increment enqueue onto the owner's L2 ring.
//
// Plain &Message{} literals remain valid: they are unpooled, their
// Retain/Release are no-ops, and the GC reclaims them — the pre-pool
// behavior.

// NewMessage returns a message envelope drawn from this PE's §III-B pool
// (falling back to the heap on a pool miss), holding one reference. Must
// be called from this PE's scheduler goroutine: the pool dequeue is
// single-consumer.
func (pe *PE) NewMessage() *Message {
	ep := pe.node.machine.envPool
	msg := ep.Get(pe.id)
	msg.mp = ep
	msg.owner = int32(pe.id)
	atomic.StoreInt32(&msg.refs, 1)
	return msg
}

// NewMessage returns a fresh unpooled envelope. It is the constructor for
// code running off any PE's scheduler goroutine — machine setup before
// Start, comm-thread sends — where the single-consumer pool Get would
// race the owning PE. Retain/Release on it are no-ops; the GC reclaims
// it.
func (m *Machine) NewMessage() *Message { return &Message{} }

// Pooled reports whether the envelope came from a PE pool and is subject
// to the Retain/Release lifecycle.
func (msg *Message) Pooled() bool { return msg.mp != nil }

// Retain takes an additional reference on a pooled envelope, keeping it
// (and the fields it carries) alive past the scheduler's
// release-after-execute. No-op on unpooled envelopes. Returns msg for
// chaining.
func (msg *Message) Retain() *Message {
	if msg.mp != nil {
		atomic.AddInt32(&msg.refs, 1)
	}
	return msg
}

// Release drops one reference; the last release scrubs the envelope and
// recycles it to its owner's pool. Releasing more times than retained
// panics (before the envelope is reused — a stale release after reuse is
// undetectable, which is why the contract is strict). No-op on unpooled
// envelopes.
func (msg *Message) Release() { msg.releaseFrom(-1) }

// releaseFrom is Release with the calling PE's id for local/remote free
// attribution; tid -1 means a non-PE goroutine.
func (msg *Message) releaseFrom(tid int) {
	if msg.mp == nil {
		return
	}
	n := atomic.AddInt32(&msg.refs, -1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("converse: Message released more times than retained")
	}
	mp, owner := msg.mp, msg.owner
	// Scrub everything except the pool identity, so a recycled envelope
	// carries no bookkeeping (seq, enqNS, viaNet, destLocal, fromNode),
	// no payload reference pinning user memory, and refs == 0 — which is
	// what lets a double release trip the panic above instead of
	// corrupting the next owner's count.
	*msg = Message{mp: mp, owner: owner}
	mp.Put(tid, int(owner), msg)
}

// CopyFrom copies the user-visible envelope fields of src — handler,
// source, modelled size, priority, the payload reference, the
// best-effort and no-aggregation flags — plus the destination worker
// routing, onto msg. The internal bookkeeping (seq, enqNS, viaNet,
// fromNode, the refcount and pool identity) is deliberately NOT copied:
// a clone is a new envelope with its own lifetime, and inheriting the
// parent's enqueue timestamp would skew the deliver-latency histogram
// (the old broadcast wholesale struct copy did exactly that).
func (msg *Message) CopyFrom(src *Message) {
	msg.Handler = src.Handler
	msg.SrcPE = src.SrcPE
	msg.Bytes = src.Bytes
	msg.Prio = src.Prio
	msg.Payload = src.Payload
	msg.BestEffort = src.BestEffort
	msg.NoAgg = src.NoAgg
	msg.destLocal = src.destLocal
}

// EnvelopePool exposes the machine's envelope pool so tests and
// diagnostics can read its hit/miss/remote-free statistics.
func (m *Machine) EnvelopePool() *mempool.EnvPool[Message] { return m.envPool }
