// Package pami implements the Parallel Active Messaging Interface the
// Charm++ machine layer is built on (paper §II-B), as an in-process
// functional library over the torus network model.
//
// The shapes follow the real PAMI API: a Client per node owns several
// Contexts; each context has a dispatch table of active-message callbacks,
// maps to one MU reception FIFO, and owns a lockless work queue. Threads
// advance contexts to make progress; multiple threads may advance different
// contexts concurrently without locks, while a per-context lock arbitrates
// accidental sharing (PAMI_Context_trylock semantics). Communication
// threads sleep on the wakeup unit and are interrupted by packet arrivals
// or posted work.
//
// SendImmediate models PAMI_Send_immediate (payload copied into the packet,
// one MU descriptor); Send models PAMI_Send (two descriptors, completion
// callback); Rget models the one-sided rendezvous read used for large
// Charm++ messages.
package pami

import (
	"fmt"
	"sync"
	"sync/atomic"

	"blueq/internal/lockless"
	"blueq/internal/torus"
	"blueq/internal/transport"
	"blueq/internal/wakeup"
)

// ShortLimit is the largest payload PAMI_Send_immediate accepts (bytes);
// beyond it Send must be used. Matches the BG/Q immediate-packet budget.
const ShortLimit = 480

// DispatchFn is an active-message callback: src is the sending node rank,
// data the payload reference, bytes the modelled wire size.
type DispatchFn func(src int, data any, bytes int)

// Client is the per-application PAMI state spanning all simulated nodes.
type Client struct {
	tr       transport.Transport
	nodes    []*Node
	rcap     int  // reorder-buffer cap per receive channel (ReorderCap)
	crc      bool // wire CRC32C armed (unreliable transport + CRCEnabled)
	crcFails atomic.Int64
	// streakObs, when set, is notified of sustained retransmission streaks
	// on any node's send channels (see RetryStreakObserver). Atomic so the
	// fault-tolerance layer can attach after traffic has started.
	streakObs atomic.Pointer[RetryStreakObserver]
}

// SetRetryStreakObserver installs (or, with nil, removes) the observer
// notified when any send channel's consecutive-retry streak reaches a
// multiple of RetryStreakThreshold. One observer per client; safe to call
// while traffic is flowing.
func (c *Client) SetRetryStreakObserver(f RetryStreakObserver) {
	if f == nil {
		c.streakObs.Store(nil)
		return
	}
	c.streakObs.Store(&f)
}

// NewClient creates a client over the given transport, with ctxPerNode
// contexts created on every node. When the transport is unreliable
// (faulty), every node arms its reliability sublayer: eager sends carry
// sequence numbers, receivers deliver in order exactly once and
// acknowledge, and senders retransmit unacknowledged packets with
// exponential backoff.
//
// PAMI never charges a flow-control credit: credits belong to the Converse
// layer above, which charges one when a message leaves for another node
// and returns it when the destination PE has executed the message.
// Traffic sent straight through a context holds no credit.
func NewClient(tr transport.Transport, ctxPerNode int) *Client {
	return NewClientWindow(tr, ctxPerNode, 0)
}

// NewClientWindow is NewClient under a layer that keeps at most window
// messages in flight per node pair (0: no flow control). The window only
// sizes the reorder buffer: each receive channel holds
// max(DefaultReorderCap, window) out-of-order packets, so a full window
// arriving reversed cannot live-lock on retransmissions.
func NewClientWindow(tr transport.Transport, ctxPerNode, window int) *Client {
	if ctxPerNode < 1 {
		ctxPerNode = 1
	}
	reliable := tr.Reliable()
	c := &Client{tr: tr, nodes: make([]*Node, tr.Nodes()), rcap: max(DefaultReorderCap, window), crc: !reliable && CRCEnabled}
	for r := range c.nodes {
		n := &Node{client: c, rank: r, ep: tr.Endpoint(r)}
		if !reliable {
			n.rel = newReliator(n, c.rcap, ctxPerNode)
		}
		for i := 0; i < ctxPerNode; i++ {
			ctx := &Context{
				node:     n,
				id:       i,
				dispatch: make(map[int]DispatchFn),
				work:     lockless.NewWorkQueue(0, false),
			}
			n.contexts = append(n.contexts, ctx)
			// Each context polls the reception FIFO with its own index.
			if i < n.ep.FIFOCount() {
				fifo := i
				n.ep.SetArrivalHook(fifo, func() { ctx.notify() })
			}
		}
		c.nodes[r] = n
	}
	return c
}

// ReorderCap is the bound on each receive channel's out-of-order buffer
// over an unreliable transport: arrivals beyond it are refused, and the
// sender's retransmission re-offers them once the gap closes.
func (c *Client) ReorderCap() int { return c.rcap }

// Transport returns the messaging substrate this client runs over.
func (c *Client) Transport() transport.Transport { return c.tr }

// Node returns the PAMI state of one simulated node.
func (c *Client) Node(rank int) *Node { return c.nodes[rank] }

// Nodes returns the number of nodes.
func (c *Client) Nodes() int { return len(c.nodes) }

// Node is the per-node PAMI client instance.
type Node struct {
	client   *Client
	rank     int
	ep       transport.Endpoint
	contexts []*Context
	rel      *reliator // non-nil when the transport is unreliable
	arrivals wakeup.Gate
}

// Rank returns the node rank.
func (n *Node) Rank() int { return n.rank }

// Context returns context i of this node.
func (n *Node) Context(i int) *Context { return n.contexts[i] }

// ContextCount returns the number of contexts on this node.
func (n *Node) ContextCount() int { return len(n.contexts) }

// Arrivals is the gate this node's contexts open when an Advance has work:
// a packet arrival, posted work, or an ack the last Advance left owed.
func (n *Node) Arrivals() *wakeup.Gate { return &n.arrivals }

// packet payload kinds carried over the MU.
type amPacket struct {
	dispatch int
	data     any
	bytes    int
}

// Context is a PAMI communication context.
type Context struct {
	node     *Node
	id       int
	lock     sync.Mutex // PAMI_Context_lock
	dispatch map[int]DispatchFn
	work     *lockless.WorkQueue
	waker    atomic.Pointer[wakeup.Unit]

	// Reliability state the polling thread owns, under lock: the receive
	// channels of this context's FIFO whose acks are unsettled, and the
	// checksum scratch for verifies and standalone acks.
	owing   []*recvChan
	scratch sumScratch

	sendsImmediate atomic.Int64
	sends          atomic.Int64
	rgets          atomic.Int64
	advances       atomic.Int64
}

// ID returns the context index within its node.
func (ctx *Context) ID() int { return ctx.id }

// RegisterDispatch installs fn as the handler for dispatch id. Dispatch
// registration is symmetric in PAMI programs: callers register the same ids
// on every context. Must be called before traffic flows.
func (ctx *Context) RegisterDispatch(id int, fn DispatchFn) {
	ctx.lock.Lock()
	defer ctx.lock.Unlock()
	ctx.dispatch[id] = fn
}

// SetWaker attaches a wakeup unit signalled on packet arrival and posted
// work; communication threads use this to sleep when idle.
func (ctx *Context) SetWaker(u *wakeup.Unit) { ctx.waker.Store(u) }

func (ctx *Context) notify() {
	if u := ctx.waker.Load(); u != nil {
		u.Signal()
	}
	ctx.node.arrivals.Open()
}

// route clamps a destination context id to the target node's context count.
func (c *Client) route(dstNode, dstCtx int) (int, error) {
	if dstNode < 0 || dstNode >= len(c.nodes) {
		return 0, fmt.Errorf("pami: destination node %d out of range [0,%d)", dstNode, len(c.nodes))
	}
	n := c.nodes[dstNode]
	if dstCtx < 0 || dstCtx >= len(n.contexts) {
		dstCtx = 0
	}
	return dstCtx, nil
}

// inject pushes an eager active-message packet into the transport,
// detouring through the reliability sublayer when the transport may lose,
// duplicate, or reorder packets.
func (n *Node) inject(dstNode, fifo, bytes int, am amPacket) error {
	if n.rel != nil {
		return n.rel.sendEager(dstNode, fifo, bytes, am)
	}
	// A reliable transport never arms the CRC, so there is nothing to stamp.
	return n.ep.Inject(torus.Packet{
		Type:    torus.MemoryFIFO,
		Dst:     dstNode,
		Bytes:   bytes,
		FIFO:    fifo,
		Payload: am,
	})
}

// SendImmediate sends a short active message. The payload must not exceed
// ShortLimit bytes (modelled); it is copied into the packet on hardware, so
// the caller may reuse its buffer immediately.
func (ctx *Context) SendImmediate(dstNode, dstCtx, dispatch int, data any, bytes int) error {
	if bytes > ShortLimit {
		return fmt.Errorf("pami: SendImmediate payload %dB exceeds %dB limit", bytes, ShortLimit)
	}
	dc, err := ctx.node.client.route(dstNode, dstCtx)
	if err != nil {
		return err
	}
	ctx.sendsImmediate.Add(1)
	return ctx.node.inject(dstNode, dc, bytes, amPacket{dispatch: dispatch, data: data, bytes: bytes})
}

// Send sends an active message of any size, invoking onDone (if non-nil)
// once the payload has been delivered to the destination (local completion
// on hardware; delivery is immediate in the functional model).
func (ctx *Context) Send(dstNode, dstCtx, dispatch int, data any, bytes int, onDone func()) error {
	dc, err := ctx.node.client.route(dstNode, dstCtx)
	if err != nil {
		return err
	}
	ctx.sends.Add(1)
	err = ctx.node.inject(dstNode, dc, bytes, amPacket{dispatch: dispatch, data: data, bytes: bytes})
	if err == nil && onDone != nil {
		onDone()
	}
	return err
}

// MemoryRegion is a registered memory region for one-sided RDMA, as created
// by PAMI_Memregion_create. The rendezvous protocol ships a reference in a
// header packet; the destination then pulls with Rget.
type MemoryRegion struct {
	Data []byte
}

// Rget performs a one-sided RDMA read of [offset, offset+length) from the
// remote region into dst, then calls onDone. In the functional model the
// copy happens inline; the timing model charges the network separately.
// The remote CPU is not involved, matching RDMA semantics.
func (ctx *Context) Rget(dst []byte, region *MemoryRegion, offset, length int, onDone func()) error {
	if region == nil {
		return fmt.Errorf("pami: Rget from nil memory region")
	}
	if offset < 0 || offset+length > len(region.Data) {
		return fmt.Errorf("pami: Rget [%d,%d) outside region of %dB", offset, offset+length, len(region.Data))
	}
	ctx.rgets.Add(1)
	copy(dst, region.Data[offset:offset+length])
	if onDone != nil {
		onDone()
	}
	return nil
}

// Post queues work for execution by whichever thread next advances this
// context (typically its communication thread), waking it if asleep. This
// is PAMI_Context_post.
func (ctx *Context) Post(w func()) {
	ctx.work.Post(w)
	ctx.notify()
}

// Advance makes progress on the context: drains posted work and delivers
// pending packets to their dispatch handlers. Returns the number of items
// processed. Safe to call from any thread; a context busy in another
// thread's Advance is skipped (trylock), as in PAMI.
func (ctx *Context) Advance() int {
	if !ctx.lock.TryLock() {
		return 0
	}
	defer ctx.lock.Unlock()
	return ctx.advanceLocked()
}

func (ctx *Context) advanceLocked() int {
	n := 0
	n += ctx.work.Drain()
	if ctx.id < ctx.node.ep.FIFOCount() {
		for {
			p, ok := ctx.node.ep.Poll(ctx.id)
			if !ok {
				break
			}
			n++
			// Integrity gate: a packet whose CRC32C does not match its wire
			// image (or whose payload was garbled beyond parsing) is dropped
			// here, before any dispatch — unacknowledged, so the sender's
			// retransmission repairs it.
			if !ctx.node.verify(&p, &ctx.scratch) {
				continue
			}
			switch pl := p.Payload.(type) {
			case amPacket:
				ctx.dispatchAM(p.Src, pl)
			case relPacket:
				// Reliability sublayer: reorder into sequence, dedup, and
				// dispatch whatever became deliverable; the ack is owed.
				ctx.node.rel.onPacket(ctx, p.Src, p.FIFO, &pl)
			case relAck:
				ctx.node.rel.acksReceived.Add(1)
				ctx.node.rel.onAck(p.Src, p.FIFO, pl.cum)
			default:
				// Unknown packet kinds (including payloads the faulty
				// transport garbled, with the CRC disarmed) are dropped, as
				// hardware would raise a protocol error.
			}
		}
	}
	if len(ctx.owing) > 0 {
		ctx.node.rel.settleAcks(ctx)
	}
	if n > 0 {
		ctx.advances.Add(int64(n))
	}
	return n
}

// dispatchAM runs an active message's handler, if one is registered.
func (ctx *Context) dispatchAM(src int, am amPacket) {
	if fn := ctx.dispatch[am.dispatch]; fn != nil {
		fn(src, am.data, am.bytes)
	}
}

// Stats returns (sendImmediates, sends, rgets, advancedItems).
func (ctx *Context) Stats() (int64, int64, int64, int64) {
	return ctx.sendsImmediate.Load(), ctx.sends.Load(), ctx.rgets.Load(), ctx.advances.Load()
}

// ---------------------------------------------------------------------------
// Communication threads (paper §III-C)

// CommThread is a dedicated communication thread: a goroutine that advances
// a set of contexts, sleeping on a wakeup unit when there is no work.
type CommThread struct {
	unit     *wakeup.Unit
	contexts []*Context
	done     chan struct{}
}

// StartCommThread launches a communication thread over the given contexts.
// The thread arms the wakeup unit on each context, then loops: advance all
// contexts until quiescent, wait for an interrupt.
func StartCommThread(contexts ...*Context) *CommThread {
	t := &CommThread{
		unit:     wakeup.NewUnit(),
		contexts: contexts,
		done:     make(chan struct{}),
	}
	for _, ctx := range contexts {
		ctx.SetWaker(t.unit)
	}
	go t.run()
	return t
}

func (t *CommThread) run() {
	defer close(t.done)
	for {
		for {
			n := 0
			for _, ctx := range t.contexts {
				n += ctx.Advance()
			}
			if n == 0 {
				break
			}
		}
		// wait instruction: consume no resources until the wakeup unit
		// fires (packet arrival or posted work).
		if !t.unit.Wait() {
			return
		}
	}
}

// Wakes returns how many times the thread was woken from wait.
func (t *CommThread) Wakes() uint64 { return t.unit.Wakes() }

// Stop shuts the thread down and waits for it to exit.
func (t *CommThread) Stop() {
	t.unit.Close()
	<-t.done
}
