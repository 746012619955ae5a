// Package m2m implements the CmiDirectManytomany interface (paper §III-E):
// a persistent neighbourhood-collective layer that lets a Charm++
// application send a burst of short messages in one optimized call.
//
// Communication patterns (who sends what to whom, and what each receiver
// expects) are registered once, ahead of time, on a Handle. During the
// computation the application just calls Start; the implementation
// generates the send list and — when communication threads are enabled —
// parallelizes the injections across them by posting work to the node's
// PAMI contexts, exactly as the BG/Q implementation posts work functions
// that call PAMI send APIs. Receivers get a completion callback when the
// expected burst has fully arrived.
//
// Handles sit at the Converse level with their own message handler, below
// the Charm++ entry-method machinery, which is where the per-message
// overhead saving comes from on the real machine.
//
// The layer is transport-agnostic: it rides whatever substrate the machine
// was configured with (internal/transport), so bursts survive link
// contention and — over the faulty backend — drops and duplicates, which
// the PAMI reliability sublayer repairs below the m2m completion counts.
package m2m

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"blueq/internal/converse"
	"blueq/internal/flowctl"
	"blueq/internal/wakeup"
)

// Manager owns the m2m handler on a Converse machine. Create it (and all
// handles) before the machine starts.
type Manager struct {
	machine *converse.Machine
	handler int
	mu      sync.Mutex
	handles []*Handle
}

// m2mMsg is the wire format of one many-to-many message.
type m2mMsg struct {
	handle int
	slot   int
	src    int
	data   any
}

// NewManager registers the m2m machinery on a machine. Must be called
// before machine.Start.
func NewManager(m *converse.Machine) *Manager {
	mgr := &Manager{machine: m}
	mgr.handler = m.RegisterHandler(mgr.dispatch)
	return mgr
}

func (mgr *Manager) dispatch(pe *converse.PE, msg *converse.Message) {
	mm := msg.Payload.(m2mMsg)
	mgr.handles[mm.handle].deliver(pe, mm)
}

// Handle is one persistent many-to-many communication pattern
// (CmiDirectManytomanyHandle).
type Handle struct {
	mgr *Manager
	id  int

	mu     sync.Mutex
	sends  map[int][]sendOp   // srcPE -> operations
	recvs  map[int]*recvState // dstPE -> expectations
	frozen atomic.Bool

	// Burst admission (flow control): inflight[dst] counts this handle's
	// messages sent toward destination PE dst and not yet delivered.
	// When the machine has flow control armed, a sender whose burst would
	// push a destination past BurstLimit parks — an all-to-all cannot
	// land its entire fan-in on one receiver at once; deliver opens
	// gates[dst] when inflight[dst] drops below the limit. Nil when flow
	// control is off.
	inflight   []atomic.Int64
	gates      []wakeup.Gate
	burstLimit int64
	parked     atomic.Int64
}

type sendOp struct {
	dst   int
	slot  int
	bytes int
	fetch func() any
}

type recvState struct {
	expect   int
	onMsg    func(pe *converse.PE, slot, srcPE int, data any)
	onDone   func(pe *converse.PE)
	received atomic.Int64
}

// NewHandle creates an empty handle. Registration calls must complete (on
// all PEs' behalf) before the machine starts; Start may be called from any
// PE each iteration thereafter.
func (mgr *Manager) NewHandle() *Handle {
	h := &Handle{
		mgr:   mgr,
		sends: make(map[int][]sendOp),
		recvs: make(map[int]*recvState),
	}
	if fc := mgr.machine.FlowController(); fc != nil {
		h.inflight = make([]atomic.Int64, mgr.machine.NumPEs())
		h.gates = make([]wakeup.Gate, mgr.machine.NumPEs())
		h.burstLimit = int64(fc.Config().BurstLimit)
	}
	mgr.mu.Lock()
	h.id = len(mgr.handles)
	mgr.handles = append(mgr.handles, h)
	mgr.mu.Unlock()
	return h
}

// BurstParked returns how many times this handle's senders parked on the
// per-destination admission limit.
func (h *Handle) BurstParked() int64 { return h.parked.Load() }

// admitN reserves n ≤ BurstLimit in-flight slots toward dst, parking
// (bounded by the flow-control MaxBlock) while they would push the
// destination past its limit. Proceeds on overdraft after MaxBlock —
// liveness over the bound.
func (h *Handle) admitN(dst int, n int64) {
	if h.tryAdmit(dst, n) {
		return
	}
	h.parked.Add(1)
	flowctl.CountBurstParked(dst)
	maxBlock := h.mgr.machine.FlowController().Config().MaxBlock
	if !wakeup.Park(func() bool { return h.tryAdmit(dst, n) }, nil, maxBlock, &h.gates[dst]) {
		h.inflight[dst].Add(n) // overdraft: still accounted
	}
}

// tryAdmit reserves n slots toward dst if they fit under the limit, by
// compare-and-swap: an add-and-undo's undo is a drop below the limit that
// deliver never sees, and a parked sender would miss it.
func (h *Handle) tryAdmit(dst int, n int64) bool {
	for {
		cur := h.inflight[dst].Load()
		if cur+n > h.burstLimit {
			return false
		}
		if h.inflight[dst].CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// RegisterSend records that srcPE sends a message of the given size to
// dstPE, tagged with slot. fetch supplies the payload at Start time, so
// persistent buffers can be filled anew every iteration
// (CmiDirectManytomanyInsertSend: base address + offset registered once).
func (h *Handle) RegisterSend(srcPE, dstPE, slot, bytes int, fetch func() any) error {
	if h.frozen.Load() {
		return fmt.Errorf("m2m: RegisterSend after first Start")
	}
	npes := h.mgr.machine.NumPEs()
	if srcPE < 0 || srcPE >= npes || dstPE < 0 || dstPE >= npes {
		return fmt.Errorf("m2m: send %d->%d outside [0,%d)", srcPE, dstPE, npes)
	}
	h.mu.Lock()
	h.sends[srcPE] = append(h.sends[srcPE], sendOp{dst: dstPE, slot: slot, bytes: bytes, fetch: fetch})
	h.mu.Unlock()
	return nil
}

// RegisterRecv declares that dstPE expects `expect` messages per iteration.
// onMsg runs for each arriving message on the destination PE; onDone runs
// once the full burst has arrived (CmiDirectManytomanyInsertRecv +
// completion callback). The counter then resets, making the handle
// persistent across iterations. Callers must not Start the next iteration
// before onDone of the previous one, per the CmiDirect contract.
func (h *Handle) RegisterRecv(dstPE, expect int, onMsg func(pe *converse.PE, slot, srcPE int, data any), onDone func(pe *converse.PE)) error {
	if h.frozen.Load() {
		return fmt.Errorf("m2m: RegisterRecv after first Start")
	}
	if expect < 0 {
		return fmt.Errorf("m2m: negative expect %d", expect)
	}
	h.mu.Lock()
	h.recvs[dstPE] = &recvState{expect: expect, onMsg: onMsg, onDone: onDone}
	h.mu.Unlock()
	return nil
}

// SendCount returns the number of sends registered for srcPE.
func (h *Handle) SendCount(srcPE int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sends[srcPE])
}

// Start triggers the burst for the calling PE
// (CmiDirectManytomany_start): all sends registered for pe are injected.
// With communication threads enabled, the send list is split across the
// node's contexts and posted, so the comm threads perform the injections
// in parallel; otherwise the worker sends inline.
func (h *Handle) Start(pe *converse.PE) {
	h.frozen.Store(true)
	h.mu.Lock()
	ops := h.sends[pe.Id()]
	h.mu.Unlock()
	if len(ops) == 0 {
		return
	}
	node := pe.Node()
	if node.HasCommThreads() && len(ops) > 1 {
		per := (len(ops) + node.NumContexts() - 1) / node.NumContexts()
		for c, lo := 0, 0; lo < len(ops); c, lo = c+1, lo+per {
			batch := ops[lo:min(lo+per, len(ops))]
			// Posted work runs on a comm thread (or whichever worker next
			// advances the context), not on pe's scheduler goroutine, so it
			// must not touch pe's single-consumer envelope pool.
			node.PostToComm(c, func() { h.sendBatch(pe, batch, false) })
		}
		return
	}
	h.sendBatch(pe, ops, true)
}

func (h *Handle) sendBatch(pe *converse.PE, ops []sendOp, onPE bool) {
	if h.mgr.machine.AggregationOn() && len(ops) > 1 {
		// With the aggregation layer armed, the burst is grouped by
		// destination so each same-destination run is admitted at once and
		// its messages append back-to-back into one batch buffer, instead
		// of interleaving destinations across buffers.
		grouped := make([]sendOp, len(ops))
		copy(grouped, ops)
		sort.SliceStable(grouped, func(i, j int) bool { return grouped[i].dst < grouped[j].dst })
		ops = grouped
	}
	// Each run of sends to one destination, cut at the burst limit, takes
	// one admission and goes out before the next run is admitted.
	// Self-sends bypass admission: the sender is the only PE that can
	// drain them, so parking on them would be a self-deadlock.
	for lo := 0; lo < len(ops); {
		dst, hi := ops[lo].dst, lo+1
		for hi < len(ops) && ops[hi].dst == dst && int64(hi-lo) < h.burstLimit {
			hi++
		}
		if h.inflight != nil && dst != pe.Id() {
			h.admitN(dst, int64(hi-lo))
		}
		for _, op := range ops[lo:hi] {
			h.send(pe, op, onPE)
		}
		lo = hi
	}
}

// send builds and injects one message. onPE selects the envelope
// constructor: the pooled per-PE pool when running on pe's own scheduler
// goroutine, the unpooled machine constructor from comm threads (the
// pool Get is single-consumer).
func (h *Handle) send(pe *converse.PE, op sendOp, onPE bool) {
	var msg *converse.Message
	if onPE {
		msg = pe.NewMessage()
	} else {
		msg = h.mgr.machine.NewMessage()
	}
	msg.Handler = h.mgr.handler
	msg.Bytes = op.bytes
	msg.Payload = m2mMsg{handle: h.id, slot: op.slot, src: pe.Id(), data: op.fetch()}
	if err := pe.Send(op.dst, msg); err != nil {
		panic(fmt.Sprintf("m2m: send to PE %d failed: %v", op.dst, err))
	}
}

// deliver runs on the destination PE's scheduler.
func (h *Handle) deliver(pe *converse.PE, mm m2mMsg) {
	if h.inflight != nil && mm.src != pe.Id() {
		if h.inflight[pe.Id()].Add(-1) < h.burstLimit {
			h.gates[pe.Id()].Open()
		}
	}
	h.mu.Lock()
	rs := h.recvs[pe.Id()]
	h.mu.Unlock()
	if rs == nil {
		panic(fmt.Sprintf("m2m: PE %d received message but registered no recv", pe.Id()))
	}
	if rs.onMsg != nil {
		rs.onMsg(pe, mm.slot, mm.src, mm.data)
	}
	if n := rs.received.Add(1); int(n) == rs.expect {
		rs.received.Store(0)
		if rs.onDone != nil {
			rs.onDone(pe)
		}
	}
}
