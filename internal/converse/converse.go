// Package converse implements the Converse adaptive runtime layer of
// Charm++ over the PAMI substrate: processing elements (PEs) with
// message-driven schedulers, SMP nodes, intra-node pointer-exchange
// delivery through lockless queues, the network machine layer, and the
// optimized idle-poll loop (paper §III).
//
// Three execution modes are supported, matching the paper's study:
//
//   - ModeNonSMP: one PE per process; the PE does both computation and
//     communication.
//   - ModeSMP: several worker PEs share a process (an SMP node); workers
//     advance the network themselves. Intra-node messages are pointer
//     exchanges through L2 lockless queues.
//   - ModeSMPComm: as ModeSMP, plus dedicated communication threads that
//     advance PAMI contexts, woken by the wakeup unit.
package converse

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/flowctl"
	"blueq/internal/lockless"
	"blueq/internal/mempool"
	"blueq/internal/obs"
	"blueq/internal/pami"
	"blueq/internal/torus"
	"blueq/internal/transport"
	"blueq/internal/wakeup"
)

// Mode selects the process/thread structure (paper §III, Fig. 7).
type Mode int

const (
	// ModeNonSMP runs one PE per process.
	ModeNonSMP Mode = iota
	// ModeSMP runs several worker PEs per process without comm threads.
	ModeSMP
	// ModeSMPComm adds dedicated communication threads.
	ModeSMPComm
)

func (m Mode) String() string {
	switch m {
	case ModeNonSMP:
		return "nonSMP"
	case ModeSMP:
		return "SMP"
	case ModeSMPComm:
		return "SMP+comm"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// QueueKind selects the intra-node queue implementation (Fig. 8 ablation).
type QueueKind int

const (
	// L2Queues uses the lockless L2-atomic queues (the paper's scheme).
	L2Queues QueueKind = iota
	// MutexQueues uses the traditional mutex-guarded queues (baseline).
	MutexQueues
)

// Config describes a Converse machine.
type Config struct {
	// Nodes is the number of simulated processes (BG/Q nodes in SMP mode).
	Nodes int
	// WorkersPerNode is the number of worker PEs per process. Forced to 1
	// in ModeNonSMP.
	WorkersPerNode int
	// CommThreads is the number of communication threads per process in
	// ModeSMPComm (ignored otherwise). Defaults to 1 per 4 workers.
	CommThreads int
	// Mode selects the execution mode.
	Mode Mode
	// Queues selects the intra-node queue implementation.
	Queues QueueKind
	// RingSize overrides the L2 queue ring size (0 = default). Must be a
	// power of two: the L2 ring indexes slots by masking the producer
	// ticket, exactly as the BG/Q machine layer does.
	RingSize int
	// Transport overrides the messaging substrate. Nil selects the
	// in-process functional torus network (transport inproc), which the
	// machine then owns and closes on Wait. A caller-supplied transport
	// must span at least Nodes endpoints and is closed by the caller.
	Transport transport.Transport
	// Aggregation, when non-nil, arms the TRAM-style per-destination
	// message aggregation layer: small remote messages (at or below
	// aggregate.DefaultMaxMsgBytes) append into per-(src node, dst node) batch
	// buffers and travel as one PAMI inject per batch, flushed when full,
	// when Aggregation.MaxDelay expires, or — immediately — when the
	// sending scheduler goes idle. Zero-valued fields inside take their
	// defaults. Self-sends, broadcasts, reductions, and messages marked
	// NoAgg bypass the layer. Nil (the default) keeps the one-inject-per-
	// message path.
	Aggregation *aggregate.Config
	// BroadcastFanout is the spanning-tree arity for Broadcast (children
	// per node). Zero selects the default of 4; values below 2 are
	// rejected (a unary tree serializes the broadcast on a chain).
	BroadcastFanout int
	// FlowControl, when non-nil, arms the end-to-end flow-control and
	// overload-protection layer: per-(src,dst node) credit windows — every
	// remote message is charged one credit when it leaves its PE and
	// returns it when the destination PE has executed it; traffic sent
	// straight through PAMI is never credited — hard caps on the lockless
	// overflow queues and the reliability reorder buffers, mempool
	// pressure watermarks that shrink granted windows, and best-effort
	// shedding under hard pressure. Zero-valued fields inside take their
	// defaults. Nil (the default) leaves every structure unbounded.
	FlowControl *flowctl.Config
}

func (c *Config) normalize() error {
	if c.Nodes < 1 {
		return fmt.Errorf("converse: Nodes = %d", c.Nodes)
	}
	if c.RingSize < 0 {
		return fmt.Errorf("converse: RingSize = %d, must be >= 0", c.RingSize)
	}
	if c.RingSize > 0 && c.RingSize&(c.RingSize-1) != 0 {
		return fmt.Errorf("converse: RingSize = %d, must be a power of two (the L2 ring masks producer tickets)", c.RingSize)
	}
	if c.Mode == ModeNonSMP {
		c.WorkersPerNode = 1
		c.CommThreads = 0
	}
	if c.WorkersPerNode < 1 {
		c.WorkersPerNode = 1
	}
	if c.Mode == ModeSMPComm && c.CommThreads < 1 {
		c.CommThreads = (c.WorkersPerNode + 3) / 4 // 1 comm per 4 workers
	}
	if c.Mode != ModeSMPComm {
		c.CommThreads = 0
	}
	if c.BroadcastFanout == 0 {
		c.BroadcastFanout = DefaultBroadcastFanout
	}
	if c.BroadcastFanout < 2 {
		return fmt.Errorf("converse: BroadcastFanout = %d, must be >= 2", c.BroadcastFanout)
	}
	return nil
}

// Handler is a Converse message handler, invoked on the destination PE's
// scheduler.
type Handler func(pe *PE, msg *Message)

// Message is a Converse message. Within a node it travels by pointer
// exchange; across nodes the functional network delivers the same value and
// Bytes records the modelled wire size for statistics and the transports'
// timing models.
type Message struct {
	Handler int
	SrcPE   int
	Bytes   int
	Prio    int // lower runs first; 0 is the default
	Payload any
	// BestEffort marks the message droppable under overload: when the
	// flow-control layer is armed and the machine is shedding (hard
	// memory pressure), Send counts and discards it instead of queueing.
	// Reliable traffic leaves this false and is never shed.
	BestEffort bool
	// NoAgg opts the message out of the aggregation layer even when it is
	// armed and the message is small enough: it is injected individually.
	// Broadcast tree traffic and reduction partials (one per PE per
	// generation, charm's per-PE fold of its elements' contributions) set
	// it — their latency is on the critical path of a collective, and a
	// broadcast payload shared across clones must not be batched
	// per-destination.
	NoAgg bool

	seq       uint64 // FIFO tie-break within equal priorities
	destLocal int    // worker rank within the destination node
	enqNS     int64  // enqueue timestamp for the deliver-latency histogram (0 when obs is off)

	// viaNet/fromNode mark a message that arrived over the network while
	// flow control was armed: it holds the credit Send charged on the
	// (fromNode, this node) window, returned when the destination PE
	// finishes executing it, so the credit window bounds the consumer's
	// whole backlog, not just the packets on the wire.
	viaNet   bool
	fromNode int

	// Pooled-envelope bookkeeping (message.go). mp non-nil marks an
	// envelope from the machine's §III-B pool; owner is the PE whose pool
	// recycles it; refs is its reference count, maintained with
	// sync/atomic functions (a plain int32 so legacy value copies of
	// unpooled messages stay vet-clean). All three survive the
	// recycle-time scrub; everything else is zeroed on reuse.
	mp    *mempool.EnvPool[Message]
	owner int32
	refs  int32
}

// Machine is a running Converse instance spanning Config.Nodes processes.
type Machine struct {
	cfg      Config
	tor      *torus.Torus
	tr       transport.Transport
	ownsTr   bool // machine created the transport and closes it on Wait
	client   *pami.Client
	nodes    []*SMPNode
	pes      []*PE
	handlers []Handler
	started  atomic.Bool
	stopped  atomic.Bool
	wg       sync.WaitGroup

	// dispatch ids on the PAMI layer
	dispConverse   int
	dispRendezvous int
	dispRzvAck     int
	dispAggBatch   int

	// fc is the flow-control controller, nil unless Config.FlowControl
	// was set.
	fc *flowctl.Controller

	// envPool is the per-PE message-envelope pool (message.go).
	envPool *mempool.EnvPool[Message]

	rzvStats RendezvousStats

	// internal handler id for spanning-tree broadcasts
	bcastHandler int

	// shutdown hooks (OnShutdown), run once from Shutdown so subsystems
	// layered above the machine (fault tolerance, checkpoint timers) tear
	// down with the same discipline as the reliability timers.
	hooksMu       sync.Mutex
	shutdownHooks []func()

	// drainHooks (OnDrain) run on a PE's own scheduler goroutine each time
	// it runs dry: the aggregator's idle flush and charm's reduction
	// partials leave there. Fixed before Start, so the loop reads it bare.
	drainHooks []func(pe *PE)
}

// NewMachine builds a machine; handlers must be registered before Start.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ctxPerNode := cfg.WorkersPerNode
	tr := cfg.Transport
	ownsTr := false
	if tr == nil {
		tr = transport.NewInproc(torus.MustNew(torus.ShapeForNodes(cfg.Nodes)), ctxPerNode)
		ownsTr = true
	} else if tr.Nodes() < cfg.Nodes {
		return nil, fmt.Errorf("converse: transport %s spans %d nodes, need %d", tr, tr.Nodes(), cfg.Nodes)
	}
	var fc *flowctl.Controller
	window := 0
	if cfg.FlowControl != nil {
		fc = flowctl.NewController(*cfg.FlowControl, cfg.Nodes)
		window = fc.Config().Window
	}
	m := &Machine{
		cfg:            cfg,
		tor:            tr.Torus(),
		tr:             tr,
		ownsTr:         ownsTr,
		client:         pami.NewClientWindow(tr, ctxPerNode, window),
		fc:             fc,
		dispConverse:   1,
		dispRendezvous: 2,
		dispRzvAck:     3,
		dispAggBatch:   4,
	}
	m.envPool = mempool.NewEnvPool[Message](cfg.Nodes*cfg.WorkersPerNode, mempool.DefaultEnvPoolThreshold)
	for r := 0; r < cfg.Nodes; r++ {
		node := &SMPNode{machine: m, rank: r, halted: make(chan struct{})}
		node.progress = func() {
			node.FlushAggregation()
			for _, nd := range m.nodes {
				for _, ctx := range nd.contexts {
					ctx.Advance()
				}
			}
		}
		alloc := mempool.NewPoolAllocator(cfg.WorkersPerNode+cfg.CommThreads, 0)
		node.alloc = alloc
		if fc != nil {
			alloc.SetWatermarks(flowctl.DefaultSoftWatermark, flowctl.DefaultHardWatermark)
			rank := r
			alloc.OnPressureChange(func(level int) { fc.SetPressure(rank, level) })
		}
		for w := 0; w < cfg.WorkersPerNode; w++ {
			pe := &PE{
				id:    r*cfg.WorkersPerNode + w,
				local: w,
				node:  node,
				wake:  wakeup.NewUnit(),
			}
			switch cfg.Queues {
			case MutexQueues:
				pe.queue = lockless.NewMutexQueue()
			default:
				q := lockless.NewL2Queue(cfg.RingSize)
				if fc != nil {
					fcc := fc.Config()
					q.SetOverflowCap(fcc.OverflowCap, fcc.MaxBlock)
				}
				pe.queue = q
			}
			node.pes = append(node.pes, pe)
			m.pes = append(m.pes, pe)
		}
		node.arrivals = m.client.Node(r).Arrivals()
		for c := 0; c < ctxPerNode; c++ {
			ctx := m.client.Node(r).Context(c)
			node.contexts = append(node.contexts, ctx)
			ctx.RegisterDispatch(m.dispConverse, node.onNetworkMessage)
			ctx.RegisterDispatch(m.dispAggBatch, node.onAggBatch)
		}
		if cfg.Aggregation != nil && cfg.Nodes > 1 {
			node.initAggregator(*cfg.Aggregation)
		}
		// Without comm threads each worker owns its context's wakeups.
		if cfg.Mode != ModeSMPComm {
			for c, ctx := range node.contexts {
				ctx.SetWaker(node.pes[c%len(node.pes)].wake)
			}
		}
		m.nodes = append(m.nodes, node)
	}
	m.registerRendezvous()
	m.registerBroadcast()
	if cfg.Aggregation != nil && cfg.Nodes > 1 {
		// Adaptive flush: a scheduler that ran dry has nothing to gain from
		// waiting out MaxDelay, so latency-sensitive request/response
		// traffic (ping-pong) pays no batching penalty. Pending()==0 makes
		// this one atomic load on the common empty path.
		m.OnDrain(func(pe *PE) {
			if agg := pe.node.agg; agg.Pending() > 0 {
				agg.FlushAll(aggregate.FlushIdle)
			}
		})
	}
	// A transport with fail-stop injection halts the dying node's
	// schedulers the moment its endpoints go silent, so the simulated node
	// stops computing exactly when it stops communicating.
	if k, ok := tr.(transport.Killer); ok {
		k.SetKillHook(func(rank int) {
			if rank < cfg.Nodes {
				m.HaltNode(rank)
			}
		})
	}
	return m, nil
}

// Config returns the (normalized) machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Torus returns the network topology.
func (m *Machine) Torus() *torus.Torus { return m.tor }

// Transport returns the messaging substrate the machine runs over.
func (m *Machine) Transport() transport.Transport { return m.tr }

// NumPEs returns the total number of worker PEs.
func (m *Machine) NumPEs() int { return len(m.pes) }

// NumNodes returns the number of processes.
func (m *Machine) NumNodes() int { return len(m.nodes) }

// PE returns the PE with the given global id. Valid only for message-setup
// purposes before Start; application code receives *PE in handlers.
func (m *Machine) PE(id int) *PE { return m.pes[id] }

// Node returns the SMP node with the given rank.
func (m *Machine) Node(rank int) *SMPNode { return m.nodes[rank] }

// RegisterHandler adds a handler to the global table (CmiRegisterHandler)
// and returns its index. Must be called before Start.
func (m *Machine) RegisterHandler(h Handler) int {
	if m.started.Load() {
		panic("converse: RegisterHandler after Start")
	}
	m.handlers = append(m.handlers, h)
	return len(m.handlers) - 1
}

// Start launches the scheduler goroutines. If initPE is non-nil it runs on
// every PE before that PE begins scheduling (ConverseInit-style).
func (m *Machine) Start(initPE func(pe *PE)) {
	if !m.started.CompareAndSwap(false, true) {
		panic("converse: Start called twice")
	}
	// Launch comm threads first so arrivals during init are progressed.
	if m.cfg.Mode == ModeSMPComm {
		for _, node := range m.nodes {
			node.startCommThreads(m.cfg.CommThreads)
		}
	}
	for _, pe := range m.pes {
		m.wg.Add(1)
		go pe.run(initPE)
	}
}

// OnDrain registers fn to run on a PE's own scheduler goroutine each time
// the PE runs dry: after a burst that emptied its queues, and on every idle
// poll. Work a layer buffers per PE for company (aggregation batches,
// reduction partials) leaves here, so it never waits on a timer while the
// PE has nothing else to do. fn must be cheap when it has nothing to send.
// Must be called before Start.
func (m *Machine) OnDrain(fn func(pe *PE)) {
	if m.started.Load() {
		panic("converse: OnDrain after Start")
	}
	m.drainHooks = append(m.drainHooks, fn)
}

// drain runs the OnDrain hooks.
func (pe *PE) drain() {
	for _, fn := range pe.node.machine.drainHooks {
		fn(pe)
	}
}

// Shutdown stops all schedulers and comm threads (CsdExitScheduler on every
// PE). Safe to call from handlers or externally, once. In-flight transfers
// are abandoned: OnShutdown hooks run and the reliability retransmission
// timers are cancelled, so no timer above or below the scheduler fires
// into the stopping machine.
func (m *Machine) Shutdown() {
	if !m.stopped.CompareAndSwap(false, true) {
		return
	}
	m.hooksMu.Lock()
	hooks := append([]func(){}, m.shutdownHooks...)
	m.hooksMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	// Final aggregation flush before the PAMI clients stop, so nothing a
	// handler sent in its last breath dies in a batch buffer.
	for _, node := range m.nodes {
		if node.agg != nil {
			node.agg.Close()
		}
	}
	for _, node := range m.nodes {
		m.client.Node(node.rank).Shutdown()
	}
	for _, pe := range m.pes {
		pe.wake.Signal()
	}
}

// OnShutdown registers a hook that runs exactly once, early in Shutdown.
// Layers that arm their own timers (heartbeats, checkpoint schedules) use
// it to cancel them with the same discipline the machine applies to its
// reliability timers. Hooks registered after Shutdown run immediately.
func (m *Machine) OnShutdown(fn func()) {
	m.hooksMu.Lock()
	if m.stopped.Load() {
		m.hooksMu.Unlock()
		fn()
		return
	}
	m.shutdownHooks = append(m.shutdownHooks, fn)
	m.hooksMu.Unlock()
}

// HaltNode fail-stops the node's schedulers: every PE on it exits its run
// loop without draining its queue, like a node board losing power. The
// rest of the machine keeps running. Idempotent; safe from any goroutine.
// NodeHalted's channel closes once every PE on the node has exited.
func (m *Machine) HaltNode(rank int) {
	node := m.nodes[rank]
	node.dead.Store(true)
	// Batches buffered on the dying node die with it — fail-stop, exactly
	// like packets sitting in a powered-off node's injection FIFOs.
	if node.agg != nil {
		node.agg.Discard()
	}
	// The dead node will never ack anything again: stop its reliability
	// retransmission timers now rather than letting them fire pointlessly
	// until machine teardown, and tear down its credit windows so any
	// sender parked on a credit the dead node holds unblocks immediately
	// instead of waiting out MaxBlock.
	m.client.Node(rank).Shutdown()
	if m.fc != nil {
		m.fc.DropPeer(rank)
	}
	// Quarantine the dead PEs' envelope pools: frees of envelopes they
	// owned (from survivors executing their last messages) fall through to
	// the GC instead of accumulating in pools nobody will allocate from
	// again. Envelopes still sitting in the dead node's scheduler queues
	// are dropped with the queues themselves — fail-stop, no leak.
	for _, pe := range node.pes {
		m.envPool.DropOwner(pe.id)
		pe.wake.Signal() // a parked scheduler wakes to see the halt
	}
}

// KillNode fail-stops a node end to end: its transport endpoints go silent
// (when the transport supports fail-stop injection) and its schedulers
// halt. Fault schedules (scenario.Faults, ft.Manager.KillPE) kill through
// it; link faults go to the torus link table (Torus().FailLink).
func (m *Machine) KillNode(rank int) {
	if k, ok := m.tr.(transport.Killer); ok {
		k.KillNode(rank) // kill hook calls HaltNode
	}
	m.HaltNode(rank) // direct halt when the transport has no kill support
}

// NodeDead reports whether the node has been halted or killed.
func (m *Machine) NodeDead(rank int) bool { return m.nodes[rank].dead.Load() }

// NodeHalted returns a channel that closes once every PE scheduler on the
// node has exited — the happens-before edge recovery needs before touching
// state the dead node's PEs were mutating.
func (m *Machine) NodeHalted(rank int) <-chan struct{} { return m.nodes[rank].halted }

// PAMIClient exposes the machine's PAMI client so layers above can
// register their own dispatch ids (the fault-tolerance heartbeats travel
// this way, below the scheduler and outside charm's message accounting).
func (m *Machine) PAMIClient() *pami.Client { return m.client }

// FlowController returns the flow-control controller, nil when
// Config.FlowControl was not set. Layers above read the degradation-ladder
// state and the burst limits from it.
func (m *Machine) FlowController() *flowctl.Controller { return m.fc }

// QueueResidency returns the number of messages currently enqueued to PE
// schedulers but not yet executed, machine-wide — the resident scheduler
// backlog the flow-control layer exists to bound. Soak harnesses assert
// it stays under Nodes × OverflowCap-order limits.
func (m *Machine) QueueResidency() int64 {
	var n int64
	for _, pe := range m.pes {
		n += pe.Resident()
	}
	return n
}

// Wait blocks until all PE schedulers have exited, then stops comm threads
// and closes the transport if the machine created it.
func (m *Machine) Wait() {
	m.wg.Wait()
	for _, node := range m.nodes {
		node.stopCommThreads()
	}
	if m.ownsTr {
		m.tr.Close()
	}
}

// Run is Start+block-until-Shutdown convenience.
func (m *Machine) Run(initPE func(pe *PE)) {
	m.Start(initPE)
	m.Wait()
}

// SMPNode is one process: a set of worker PEs sharing memory, their PAMI
// contexts, comm threads and the node-level allocator.
type SMPNode struct {
	machine  *Machine
	rank     int
	pes      []*PE
	contexts []*pami.Context
	comm     []*pami.CommThread
	alloc    mempool.Allocator

	// agg is the node's outgoing aggregation layer, nil unless
	// Config.Aggregation was set (and the machine spans >1 node).
	// progress is the closure a sender parked on a credit runs, built once
	// so sends stay allocation-free: it flushes this node's buffers
	// (buffered messages hold credits, so a full window must be able to
	// drain itself) and advances every context so the messages holding
	// credits arrive even when one thread runs the whole machine, also
	// when this node's arrivals gate or the destination's opens (acks).
	agg      *aggregate.Aggregator
	progress func()
	arrivals *wakeup.Gate

	// fail-stop state: dead stops the node's PE run loops; halted closes
	// (via haltOnce) when the last of them has exited.
	dead     atomic.Bool
	exited   atomic.Int32
	haltOnce sync.Once
	halted   chan struct{}
}

// Rank returns the node's process rank.
func (n *SMPNode) Rank() int { return n.rank }

// NumPEs returns the number of worker PEs on this node.
func (n *SMPNode) NumPEs() int { return len(n.pes) }

// Allocator returns the node's message-buffer allocator.
func (n *SMPNode) Allocator() mempool.Allocator { return n.alloc }

// HasCommThreads reports whether this node runs dedicated comm threads.
func (n *SMPNode) HasCommThreads() bool { return n.machine.cfg.Mode == ModeSMPComm }

// NumContexts returns the node's PAMI context count.
func (n *SMPNode) NumContexts() int { return len(n.contexts) }

// PostToComm queues work on context i's work queue; with comm threads
// enabled the work executes on a communication thread (PAMI_Context_post).
// Without comm threads the work runs when a worker next advances that
// context. The many-to-many layer uses this to parallelize message bursts
// across comm threads (paper §III-E).
func (n *SMPNode) PostToComm(i int, w func()) {
	n.contexts[i%len(n.contexts)].Post(w)
}

func (n *SMPNode) startCommThreads(k int) {
	if k < 1 || len(n.contexts) == 0 {
		return
	}
	if k > len(n.contexts) {
		k = len(n.contexts)
	}
	// Contexts are distributed evenly across comm threads so the load from
	// each worker spreads over all comm threads (paper §III-C).
	buckets := make([][]*pami.Context, k)
	for i, ctx := range n.contexts {
		buckets[i%k] = append(buckets[i%k], ctx)
	}
	for _, b := range buckets {
		n.comm = append(n.comm, pami.StartCommThread(b...))
	}
}

func (n *SMPNode) stopCommThreads() {
	for _, ct := range n.comm {
		ct.Stop()
	}
	n.comm = nil
}

// onNetworkMessage is the PAMI dispatch callback for Converse messages: it
// enqueues the message on the destination PE's scheduler queue.
func (n *SMPNode) onNetworkMessage(src int, data any, bytes int) {
	msg := data.(*Message)
	n.machine.fromNetwork(msg, src)
	n.pes[msg.destLocal].enqueue(msg)
}

// charge takes the credit a message bound for node dst holds from the
// moment it leaves this node until the destination PE has executed it
// (invoke returns it). Every remote send pays it here exactly once — direct,
// rendezvous, aggregated, broadcast forward; traffic sent straight through
// PAMI (heartbeats, probes, gossip, rendezvous acks, batch envelopes) holds
// none. No-op with flow control off.
func (n *SMPNode) charge(dst int) {
	if fc := n.machine.fc; fc != nil {
		// Proceed regardless of the return: false means the MaxBlock
		// overdraft fired, and the window already accounts for us.
		fc.Window(n.rank, dst).Acquire(n.progress, n.arrivals, n.machine.nodes[dst].arrivals)
	}
}

// fromNetwork marks a message that arrived from node src while flow
// control is armed: it holds the credit src charged, which invoke returns
// once the message has executed.
func (m *Machine) fromNetwork(msg *Message, src int) {
	if m.fc != nil {
		msg.viaNet, msg.fromNode = true, src
	}
}

// PE is a Converse processing element: a worker thread with a
// message-driven scheduler.
type PE struct {
	id    int
	local int
	node  *SMPNode
	queue lockless.Queue
	wake  *wakeup.Unit

	sched    schedq
	executed atomic.Int64
	idles    atomic.Int64
	enqueued atomic.Int64

	// throttleNS, when positive, sleeps the scheduler for that many
	// nanoseconds before each handler invocation — the chaos rows'
	// deliberately slowed consumer.
	throttleNS atomic.Int64
}

// Id returns the PE's global identifier (CmiMyPe).
func (pe *PE) Id() int { return pe.id }

// LocalRank returns the PE's rank within its node (CmiMyRank).
func (pe *PE) LocalRank() int { return pe.local }

// Node returns the PE's SMP node.
func (pe *PE) Node() *SMPNode { return pe.node }

// Machine returns the owning machine.
func (pe *PE) Machine() *Machine { return pe.node.machine }

// NumPEs returns the machine's total PE count (CmiNumPes).
func (pe *PE) NumPEs() int { return len(pe.node.machine.pes) }

// Executed returns the number of messages this PE has run.
func (pe *PE) Executed() int64 { return pe.executed.Load() }

// Enqueued returns the number of messages queued to this PE. Together with
// Executed it gives recovery a per-PE quiescence probe: a PE with
// Enqueued == Executed has nothing waiting and nothing running.
func (pe *PE) Enqueued() int64 { return pe.enqueued.Load() }

// IdleCycles returns the number of scheduler iterations spent idle.
func (pe *PE) IdleCycles() int64 { return pe.idles.Load() }

// Resident returns the messages queued to this PE but not yet executed
// (scheduler queue plus priority queue).
func (pe *PE) Resident() int64 { return pe.enqueued.Load() - pe.executed.Load() }

// SetInvokeDelay makes the PE sleep for d before executing each message —
// an artificially slowed consumer for overload and chaos testing. Zero
// restores full speed. Safe to call while the machine runs.
func (pe *PE) SetInvokeDelay(d time.Duration) { pe.throttleNS.Store(int64(d)) }

func (pe *PE) enqueue(msg *Message) {
	pe.enqueued.Add(1)
	if obs.On() {
		msg.enqNS = time.Now().UnixNano()
	}
	pe.queue.Enqueue(msg)
	pe.wake.Signal()
}

// enqueueBatch lands a run of messages bound for this PE with one counter
// update, one ring reservation, and one wakeup — the receive-side half of
// the aggregation amortization.
func (pe *PE) enqueueBatch(msgs []any) {
	pe.enqueued.Add(int64(len(msgs)))
	if obs.On() {
		now := time.Now().UnixNano()
		for _, m := range msgs {
			m.(*Message).enqNS = now
		}
	}
	pe.queue.EnqueueBatch(msgs)
	pe.wake.Signal()
}

// Send delivers msg to the PE with global id dst (CmiSyncSend). Within the
// node it is a pointer exchange through the destination's lockless queue;
// across nodes it goes through PAMI using this PE's context, choosing
// Send_immediate for short messages.
func (pe *PE) Send(dst int, msg *Message) error {
	m := pe.node.machine
	if dst < 0 || dst >= len(m.pes) {
		msg.releaseFrom(pe.id)
		return fmt.Errorf("converse: PE %d out of range [0,%d)", dst, len(m.pes))
	}
	msg.SrcPE = pe.id
	if msg.BestEffort && m.fc != nil && m.fc.TryShed(pe.id) {
		// Shedding (ladder rung 2): best-effort traffic is dropped at the
		// source, counted, so reliable traffic keeps its credits. Send
		// consumes the caller's reference on every path, shed included.
		msg.releaseFrom(pe.id)
		return nil
	}
	target := m.pes[dst]
	if target.node == pe.node {
		if obs.On() {
			mSendLocal.Inc(pe.id)
			mSendBytes.Add(pe.id, int64(msg.Bytes))
		}
		target.enqueue(msg)
		return nil
	}
	msg.destLocal = target.local
	if obs.On() {
		mSendRemote.Inc(pe.id)
		mSendBytes.Add(pe.id, int64(msg.Bytes))
	}
	pe.node.charge(target.node.rank)
	if agg := pe.node.agg; agg != nil && !msg.NoAgg && agg.Eligible(msg.Bytes) {
		return pe.sendAggregated(target, msg)
	}
	if msg.Bytes > RendezvousThreshold {
		if obs.On() {
			mSendRzv.Inc(pe.id)
		}
		return pe.sendRendezvous(target, msg)
	}
	return pe.sendDirect(target, msg)
}

// sendDirect injects one message on its own: the pre-aggregation eager
// path, also the fallback when the aggregator has closed. The caller has
// charged the message's credit.
func (pe *PE) sendDirect(target *PE, msg *Message) error {
	m := pe.node.machine
	ctx := pe.node.contexts[pe.local%len(pe.node.contexts)]
	var err error
	if msg.Bytes <= pami.ShortLimit {
		if obs.On() {
			mSendImmediate.Inc(pe.id)
		}
		err = ctx.SendImmediate(target.node.rank, target.local, m.dispConverse, msg, msg.Bytes)
	} else {
		err = ctx.Send(target.node.rank, target.local, m.dispConverse, msg, msg.Bytes, nil)
	}
	if err != nil {
		// Inject refused (endpoints shut down mid-send): the message will
		// never be delivered, so nobody downstream releases it. Send
		// consumes the reference here too.
		msg.releaseFrom(pe.id)
	}
	return err
}

// run is the CsdScheduler loop with the optimized idle poll (§III-D): spin
// briefly on the queue's L2 counters, advance the network when this PE is
// responsible for it, then block on the wakeup unit.
func (pe *PE) run(initPE func(pe *PE)) {
	m := pe.node.machine
	defer m.wg.Done()
	defer func() {
		// Last PE out closes the node's halted channel, the signal
		// recovery waits on before touching the node's state.
		if pe.node.exited.Add(1) == int32(len(pe.node.pes)) {
			pe.node.haltOnce.Do(func() { close(pe.node.halted) })
		}
	}()
	if initPE != nil {
		initPE(pe)
	}
	selfAdvance := m.cfg.Mode != ModeSMPComm
	myCtx := pe.node.contexts[pe.local%len(pe.node.contexts)]
	// The scheduler pulls only enough messages to keep its priority queue
	// primed. Pulling everything would drain the lockless queue into an
	// unbounded heap — with flow control armed that moves the backlog out
	// of the structure producers park on (backpressure never reaches
	// them), and under burst arrival (aggregated batches land 64 messages
	// per dispatch) it turns every pop into an O(log backlog) heap walk.
	// Bounded, the heap stays at scheduling-window size: priorities still
	// reorder a meaningful window of pending work, and FIFO order within a
	// priority is unchanged because pull order is arrival order.
	const idleSpins = 64
	spins := 0
	for !m.stopped.Load() && !pe.node.dead.Load() {
		progressed := false
		// Pull available messages into the local priority queue, then run
		// the best one.
		for pe.sched.len() < schedPullBound {
			v, ok := pe.queue.Dequeue()
			if !ok {
				break
			}
			pe.sched.push(v.(*Message))
		}
		drained := pe.sched.len() < schedPullBound // the pull emptied the queue
		// Invoke a short burst between network advances: one Advance per
		// message (a context TryLock plus an empty poll, usually) costs more
		// than the dispatch it's amortizing once batches land 64 messages at
		// a time. The burst is short enough that priority arrivals and the
		// stop flag are still observed promptly.
		for i := 0; i < schedInvokeBurst && pe.sched.len() > 0; i++ {
			if m.stopped.Load() || pe.node.dead.Load() {
				break
			}
			pe.invoke(pe.sched.pop())
			progressed = true
		}
		// A scheduler that ran dry — a burst emptied it, or there was
		// nothing to run — drains before the network advance, not after
		// it: a reply that leaves now carries pami's ack for the message it
		// answers, which an Advance polling nothing new would otherwise
		// send on its own.
		if drained && pe.sched.len() == 0 {
			pe.drain()
		}
		if selfAdvance {
			if myCtx.Advance() > 0 {
				progressed = true
			}
		}
		if progressed {
			spins = 0
			continue
		}
		pe.idles.Add(1)
		if obs.On() {
			mSchedIdle.Inc(pe.id)
		}
		spins++
		if spins < idleSpins {
			// Idle poll: on hardware this spins on the queue's L2 atomic
			// counter (~60-cycle loads), leaving the core to active threads.
			// Yield so co-scheduled PEs get the core, the same effect.
			runtime.Gosched()
			continue
		}
		spins = 0
		if obs.On() {
			mSchedBlock.Inc(pe.id)
		}
		pe.wake.Wait()
	}
	// Drain-free exit: remaining messages are dropped at shutdown, like
	// CsdExitScheduler.
}

// schedPullBound caps the scheduler's priority-queue depth when flow
// control is armed. Deep enough that priorities still reorder a meaningful
// window of work; shallow enough that backpressure reaches producers.
const schedPullBound = 64

// schedInvokeBurst is how many scheduled messages run between network
// advances. Small enough that incoming traffic and shutdown are noticed
// within a few handler executions, large enough to amortize the advance.
const schedInvokeBurst = 8

func (pe *PE) invoke(msg *Message) {
	m := pe.node.machine
	if msg.Handler < 0 || msg.Handler >= len(m.handlers) {
		panic(fmt.Sprintf("converse: PE %d received unknown handler %d", pe.id, msg.Handler))
	}
	if d := pe.throttleNS.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	pe.executed.Add(1)
	if obs.On() {
		mDeliver.Inc(pe.id)
		if msg.enqNS != 0 {
			mDeliverNS.Observe(pe.id, time.Now().UnixNano()-msg.enqNS)
		}
	}
	// Capture the credit routing before the handler runs: a handler that
	// Retains and Releases on another goroutine could recycle the envelope
	// the instant it returns, and credit accounting must not read scrubbed
	// fields.
	viaNet, fromNode := msg.viaNet, msg.fromNode
	m.handlers[msg.Handler](pe, msg)
	if viaNet {
		// The credit's return point: the message is fully executed, its
		// scheduler-queue slot and buffer are free — now the sender may
		// put another one in flight.
		m.fc.Window(fromNode, pe.node.rank).Release(1)
	}
	// Release-after-execute, strictly after the credit return: the
	// envelope must not recycle while its credit is still charged. A
	// release on a non-owning PE is the §III-B lockless remote free.
	msg.releaseFrom(pe.id)
}

// schedq is the PE's local scheduling window. Messages at the default
// priority (Prio == 0, the overwhelming majority) sit in a FIFO ring and
// pay no comparisons; only explicitly prioritized messages go through heap
// maintenance. Pop order is identical to a single (Prio, seq) heap: the
// heap holds only non-zero priorities, so the front of the FIFO and the
// top of the heap never tie and the winner is decided by priority alone,
// while order within each structure is arrival order.
type schedq struct {
	fifo []*Message // Prio == 0, arrival order
	head int        // index of the FIFO front
	heap msgHeap    // Prio != 0, ordered by (Prio, seq)
	seq  uint64     // arrival stamp for the heap's FIFO tie-break
}

func (q *schedq) push(msg *Message) {
	if msg.Prio == 0 {
		q.fifo = append(q.fifo, msg)
		return
	}
	msg.seq = q.seq
	q.seq++
	heap.Push(&q.heap, msg)
}

func (q *schedq) len() int { return len(q.fifo) - q.head + len(q.heap) }

func (q *schedq) pop() *Message {
	if q.head < len(q.fifo) && (len(q.heap) == 0 || q.heap[0].Prio > 0) {
		msg := q.fifo[q.head]
		q.fifo[q.head] = nil
		q.head++
		if q.head == len(q.fifo) {
			q.fifo = q.fifo[:0]
			q.head = 0
		}
		return msg
	}
	return heap.Pop(&q.heap).(*Message)
}

// msgHeap orders messages by (Prio, seq): Charm++'s prioritized scheduler
// queue with FIFO tie-break.
type msgHeap []*Message

func (h msgHeap) Len() int { return len(h) }
func (h msgHeap) Less(i, j int) bool {
	if h[i].Prio != h[j].Prio {
		return h[i].Prio < h[j].Prio
	}
	return h[i].seq < h[j].seq
}
func (h msgHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *msgHeap) Push(x any)   { *h = append(*h, x.(*Message)) }
func (h *msgHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return v
}
