// Package charm implements the Charm++ programming model on top of the
// Converse runtime: chare arrays and groups communicating by asynchronous
// entry-method invocation, reductions, broadcasts, quiescence detection and
// measurement-based load balancing (paper §I, §III).
//
// Application computation lives in *elements* of chare arrays (or groups,
// one element per PE). Elements are plain Go values built by a factory; the
// runtime maps array elements to PEs and re-maps them under the load
// balancer, relieving the programmer of placement — the core promise of the
// model. Entry methods are asynchronous: a Send enqueues a message on the
// destination PE's scheduler, which invokes the method when it reaches the
// front of the queue.
package charm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blueq/internal/converse"
	"blueq/internal/obs"
)

// Runtime is a Charm++ runtime instance over a Converse machine.
type Runtime struct {
	machine *converse.Machine
	handler int

	mu      sync.Mutex
	arrays  []*Array
	groups  []*Group
	started atomic.Bool

	// onRecovery hooks run at the start of BeginRecovery, after the epoch
	// bump fenced off in-flight messages: layers above the runtime (the
	// load balancer) reset state keyed to now-dropped messages.
	onRecovery []func()

	// reductions[pe] holds the reduction partials open on that PE
	// (reduction.go).
	reductions []peReductions

	// message accounting for quiescence detection
	sent atomic.Int64
	done atomic.Int64

	// epoch is the recovery generation: every message is stamped with the
	// epoch at send time and dropped at dispatch if the runtime has since
	// rolled back (recovery.go). Zero for the whole run when no failure
	// occurs, so the guard is a single equal-comparison on the hot path.
	epoch atomic.Uint32

	// migrating counts element blobs in flight between PEs: incremented
	// when MigrateElement departs an element, decremented when the blob
	// installs (or is dropped as stale / fenced off by a recovery).
	// Checkpoints require it to be zero.
	migrating atomic.Int64
}

// charmMsg is the wire format of an entry-method invocation.
type charmMsg struct {
	kind  msgKind
	array int // array or group id
	idx   int
	entry int
	epoch uint32
	data  any
}

type msgKind uint8

const (
	kindArray msgKind = iota
	kindGroup
	kindReduction
	kindMigrate
	kindArrayBcast
)

// NewRuntime creates a runtime over a fresh Converse machine with the given
// configuration. Arrays, groups and entry methods must be declared before
// Start/Run.
func NewRuntime(cfg converse.Config) (*Runtime, error) {
	m, err := converse.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{machine: m, reductions: make([]peReductions, m.NumPEs())}
	rt.handler = m.RegisterHandler(rt.dispatch)
	m.OnDrain(rt.flushPartials)
	return rt, nil
}

// Machine exposes the underlying Converse machine.
func (rt *Runtime) Machine() *converse.Machine { return rt.machine }

// NumPEs returns the total worker PE count.
func (rt *Runtime) NumPEs() int { return rt.machine.NumPEs() }

// Run starts the runtime, invokes main on PE 0 (the mainchare), and blocks
// until Shutdown. Element factories run on each element's home PE before
// main executes anywhere.
func (rt *Runtime) Run(main func(pe *converse.PE)) {
	if !rt.started.CompareAndSwap(false, true) {
		panic("charm: Run called twice")
	}
	var ready sync.WaitGroup
	ready.Add(rt.machine.NumPEs())
	rt.machine.Run(func(pe *converse.PE) {
		for _, a := range rt.arrays {
			a.instantiateLocal(pe)
		}
		for _, g := range rt.groups {
			g.instantiateLocal(pe)
		}
		ready.Done()
		ready.Wait() // all elements exist before any entry method fires
		if pe.Id() == 0 && main != nil {
			main(pe)
		}
	})
}

// Shutdown stops all schedulers (CkExit).
func (rt *Runtime) Shutdown() { rt.machine.Shutdown() }

// dispatch is the single Converse handler: it routes messages to entry
// methods and accounts completion for quiescence detection.
func (rt *Runtime) dispatch(pe *converse.PE, msg *converse.Message) {
	cm := msg.Payload.(charmMsg)
	if cm.epoch != rt.epoch.Load() {
		// Sent before a recovery rolled the runtime back: executing it
		// would replay pre-failure work against restored state. Dropped
		// without touching the quiescence counters, which BeginRecovery
		// reset along with the epoch.
		if obs.On() {
			mStaleDrop.Inc(pe.Id())
		}
		return
	}
	switch cm.kind {
	case kindArray:
		if obs.On() {
			mArrayMsgs.Inc(pe.Id())
		}
		rt.arrays[cm.array].deliver(pe, cm, msg.Bytes)
	case kindArrayBcast:
		rt.arrays[cm.array].deliverBroadcast(pe, cm, msg.Bytes)
	case kindGroup:
		if obs.On() {
			mGroupMsgs.Inc(pe.Id())
			mEntryCalls.Inc(cm.entry)
		}
		rt.groups[cm.array].deliver(pe, cm)
	case kindReduction:
		if obs.On() {
			mReductionMsg.Inc(pe.Id())
		}
		rt.arrays[cm.array].reduceArrive(pe, cm.data.(*partial))
	case kindMigrate:
		rt.arrays[cm.array].installMigrated(pe, cm)
	}
	rt.done.Add(1)
}

// send stamps cm with the current epoch, counts it for quiescence
// detection and posts it.
func (rt *Runtime) send(pe *converse.PE, dstPE int, cm charmMsg, bytes int) error {
	cm.epoch = rt.epoch.Load()
	rt.sent.Add(1)
	return rt.post(pe, dstPE, cm, bytes)
}

// broadcast stamps cm and sends it to every PE down the Converse spanning
// tree. It counts one logical send per PE for quiescence detection; each
// PE's delivery counts one execution.
func (rt *Runtime) broadcast(pe *converse.PE, cm charmMsg, bytes int) error {
	cm.epoch = rt.epoch.Load()
	rt.sent.Add(int64(rt.machine.NumPEs()))
	msg := pe.NewMessage()
	msg.Handler = rt.handler
	msg.Bytes = bytes
	msg.Payload = cm
	return pe.Broadcast(msg)
}

// post hands cm, already stamped and counted, to converse.
func (rt *Runtime) post(pe *converse.PE, dstPE int, cm charmMsg, bytes int) error {
	if obs.On() {
		mMsgsSent.Inc(pe.Id())
		mBytesSent.Add(pe.Id(), int64(bytes))
	}
	// Reduction partials sit on a collective's critical path: the root
	// cannot fold until the last partial lands, so batching any of them
	// for company stretches the whole reduction. They bypass the
	// aggregation layer.
	//
	// The envelope comes from pe's §III-B pool and recycles on its home
	// pool when the destination finishes executing it; Send consumes the
	// reference on every path.
	msg := pe.NewMessage()
	msg.Handler = rt.handler
	msg.Bytes = bytes
	msg.Payload = cm
	msg.NoAgg = cm.kind == kindReduction
	return pe.Send(dstPE, msg)
}

// ---------------------------------------------------------------------------
// Chare arrays

// Element is an array element: any Go value constructed by the array
// factory. Elements needing their index or runtime capture them in the
// factory closure.
type Element any

// EntryFn is an entry method of an array: invoked on the element's home PE
// with the element, its index and the message payload.
type EntryFn func(pe *converse.PE, elem Element, idx int, payload any)

// Array is a 1D chare array of n elements. Multidimensional arrays use the
// Index2D/Index3D encodings.
type Array struct {
	rt      *Runtime
	id      int
	name    string
	n       int
	factory func(idx int) Element
	entries []EntryFn

	// home[i] is the PE owning element i; guarded by homeMu for migration.
	// homeGen counts changes to home (migration, restore), also under
	// homeMu; plan caches the broadcast plan of one generation.
	homeMu  sync.RWMutex
	home    []int32
	homeGen uint64
	plan    atomic.Pointer[bcastPlan]

	// elems[i] is non-nil on the home PE (single address space: the slice
	// is global, ownership is logical). Written under homeMu once the
	// runtime starts: migration departs an element (nil) on the old home
	// and installs it on the new one.
	elems []Element

	// inc[i] is the element's migration incarnation, bumped at every
	// departure and stamped into the blob; a duplicated or reordered
	// migration message whose incarnation does not match the table is
	// stale and must not install (the epoch-fencing leg of exactly-once
	// handoff). transit[i] is true while the element's packed state is
	// between PEs — the new home parks messages instead of executing
	// them until the blob installs. Both guarded by homeMu.
	inc     []uint32
	transit []bool

	// pending buffers messages that reached the new home before the
	// element's packed state did; installMigrated drains it.
	pendMu  sync.Mutex
	pending map[int][]pendingMsg

	// meter, when set, receives per-element wall-clock execution times
	// from deliver (internal/lb's live load measurement). Set before Run.
	meter LoadMeter

	red reductionState
}

// NewArray declares an array before the runtime starts. The factory is
// invoked once per element on its home PE during startup. Elements are
// placed with the default block map.
func (rt *Runtime) NewArray(name string, n int, factory func(idx int) Element) *Array {
	npes := rt.machine.NumPEs()
	return rt.NewArrayPlaced(name, n, factory, func(idx int) int {
		return blockMap(idx, n, npes)
	})
}

// NewArrayPlaced declares an array with a custom initial element-to-PE
// map (CkArrayMap). Topology-aware placements — e.g. torus.Map3D folded
// through node ranks — plug in here; the load balancer may still migrate
// elements later.
func (rt *Runtime) NewArrayPlaced(name string, n int, factory func(idx int) Element, place func(idx int) int) *Array {
	if rt.started.Load() {
		panic("charm: NewArray after Run")
	}
	if n < 1 {
		panic(fmt.Sprintf("charm: array %q with %d elements", name, n))
	}
	a := &Array{
		rt: rt, name: name, n: n, factory: factory,
		home:    make([]int32, n),
		elems:   make([]Element, n),
		inc:     make([]uint32, n),
		transit: make([]bool, n),
		pending: make(map[int][]pendingMsg),
	}
	npes := rt.machine.NumPEs()
	for i := 0; i < n; i++ {
		pe := place(i)
		if pe < 0 || pe >= npes {
			panic(fmt.Sprintf("charm: array %q placement maps element %d to PE %d of %d", name, i, pe, npes))
		}
		a.home[i] = int32(pe)
	}
	rt.mu.Lock()
	a.id = len(rt.arrays)
	rt.arrays = append(rt.arrays, a)
	rt.mu.Unlock()
	return a
}

// TopoPlace3D returns a placement function for a bx×by×bz logical block
// array on this runtime: blocks map to topologically nearby nodes via the
// machine torus (paper §VII's planned topological placement), then to a
// PE within the node round-robin.
func (rt *Runtime) TopoPlace3D(bx, by, bz int) func(idx int) int {
	tor := rt.machine.Torus()
	nodeOf := tor.Map3D(bx, by, bz)
	workers := rt.machine.NumPEs() / rt.machine.NumNodes()
	counters := make([]int, rt.machine.NumNodes())
	place := make([]int, bx*by*bz)
	for i := range place {
		node := nodeOf[i]
		place[i] = node*workers + counters[node]%workers
		counters[node]++
	}
	return func(idx int) int { return place[idx] }
}

// blockMap is the default block placement: contiguous ranges of elements
// per PE.
func blockMap(idx, n, npes int) int {
	pe := idx * npes / n
	if pe >= npes {
		pe = npes - 1
	}
	return pe
}

// Name returns the array's name.
func (a *Array) Name() string { return a.name }

// Len returns the number of elements.
func (a *Array) Len() int { return a.n }

// Entry registers an entry method and returns its id. Must be called
// before Run; ids are dense from zero.
func (a *Array) Entry(fn EntryFn) int {
	if a.rt.started.Load() {
		panic("charm: Entry after Run")
	}
	a.entries = append(a.entries, fn)
	return len(a.entries) - 1
}

// HomePE returns the PE currently owning element idx.
func (a *Array) HomePE(idx int) int {
	a.homeMu.RLock()
	defer a.homeMu.RUnlock()
	return int(a.home[idx])
}

// Homes returns a snapshot of the element-to-PE map (one consistent read
// of the home table; the load balancer plans against it).
func (a *Array) Homes() []int32 {
	a.homeMu.RLock()
	defer a.homeMu.RUnlock()
	return append([]int32(nil), a.home...)
}

// instantiateLocal constructs the elements homed on pe.
func (a *Array) instantiateLocal(pe *converse.PE) {
	for i := 0; i < a.n; i++ {
		if int(a.home[i]) == pe.Id() {
			a.elems[i] = a.factory(i)
		}
	}
}

// Element returns element idx; valid on its home PE (and, in this
// single-process model, anywhere for read-only inspection in tests).
func (a *Array) Element(idx int) Element { return a.elems[idx] }

// Send asynchronously invokes entry on element idx with the given payload.
// bytes is the modelled message size.
func (a *Array) Send(pe *converse.PE, idx, entry int, payload any, bytes int) error {
	if idx < 0 || idx >= a.n {
		return fmt.Errorf("charm: array %q index %d out of range [0,%d)", a.name, idx, a.n)
	}
	if entry < 0 || entry >= len(a.entries) {
		return fmt.Errorf("charm: array %q entry %d unknown", a.name, entry)
	}
	return a.rt.send(pe, a.HomePE(idx), charmMsg{kind: kindArray, array: a.id, idx: idx, entry: entry, data: payload}, bytes)
}

// bcastPlan is one snapshot of an array's home table grouped by PE:
// byPE[p] lists the elements homed on PE p when the snapshot was taken.
type bcastPlan struct {
	gen  uint64
	byPE [][]int32
}

// arrayBcast is the payload of a kindArrayBcast message.
type arrayBcast struct {
	plan *bcastPlan
	data any
}

// Broadcast invokes entry on every element of the array. It is one message
// down the Converse spanning tree, not one per element: the message carries
// the per-PE element lists of one home-table snapshot, and every PE runs
// the entry for its own list. An element that migrated since the snapshot
// is forwarded or parked exactly like a point-to-point message, so each
// element's entry runs exactly once. The payload is shared across
// elements and must be treated as read-only.
func (a *Array) Broadcast(pe *converse.PE, entry int, payload any, bytes int) error {
	if entry < 0 || entry >= len(a.entries) {
		return fmt.Errorf("charm: array %q entry %d unknown", a.name, entry)
	}
	return a.rt.broadcast(pe, charmMsg{kind: kindArrayBcast, array: a.id, entry: entry,
		data: &arrayBcast{plan: a.broadcastPlan(), data: payload}}, bytes)
}

// broadcastPlan returns the plan for the current home table, rebuilding
// the cached one only after the table changed.
func (a *Array) broadcastPlan() *bcastPlan {
	a.homeMu.RLock()
	defer a.homeMu.RUnlock()
	if p := a.plan.Load(); p != nil && p.gen == a.homeGen {
		return p
	}
	p := &bcastPlan{gen: a.homeGen, byPE: make([][]int32, a.rt.machine.NumPEs())}
	for i, h := range a.home {
		p.byPE[h] = append(p.byPE[h], int32(i))
	}
	a.plan.Store(p)
	return p
}

// deliverBroadcast runs a broadcast's entry for every element the plan
// homes on pe.
func (a *Array) deliverBroadcast(pe *converse.PE, cm charmMsg, bytes int) {
	b := cm.data.(*arrayBcast)
	cm.kind, cm.data = kindArray, b.data
	for _, idx := range b.plan.byPE[pe.Id()] {
		cm.idx = int(idx)
		a.deliver(pe, cm, bytes)
	}
}

// deliver runs the entry method on the element's home PE. A message that
// raced with a migration and landed on the old home is forwarded (the
// home table is the forwarding pointer), so an element only ever executes
// on its current home — preserving Charm++'s guarantee that one element
// never runs on two PEs at once. A message that beats the element's
// packed state to the new home is parked in the pending buffer and
// re-enqueued when installMigrated publishes the element. When a load
// meter is attached, the entry's wall-clock execution time is recorded at
// the same release-after-execute point the scheduler recycles the
// envelope from.
func (a *Array) deliver(pe *converse.PE, cm charmMsg, bytes int) {
	a.homeMu.RLock()
	home := int(a.home[cm.idx])
	el := a.elems[cm.idx]
	if home == pe.Id() && a.transit[cm.idx] {
		// Element in transit to this PE: park the message while still
		// holding homeMu, so installMigrated (which clears transit under
		// the write lock before draining) can never miss it.
		a.pendMu.Lock()
		a.pending[cm.idx] = append(a.pending[cm.idx], pendingMsg{cm: cm, bytes: bytes})
		a.pendMu.Unlock()
		a.homeMu.RUnlock()
		if obs.On() {
			mMigBuffered.Inc(pe.Id())
		}
		return
	}
	a.homeMu.RUnlock()
	if home != pe.Id() {
		if obs.On() {
			mForwarded.Inc(pe.Id())
		}
		if err := a.rt.send(pe, home, cm, bytes); err != nil {
			panic(fmt.Sprintf("charm: forwarding to migrated element failed: %v", err))
		}
		return
	}
	if obs.On() {
		mEntryCalls.Inc(cm.entry)
	}
	if m := a.meter; m != nil {
		t0 := time.Now()
		a.entries[cm.entry](pe, el, cm.idx, cm.data)
		m.RecordLoad(pe, cm.idx, time.Since(t0).Nanoseconds())
		return
	}
	a.entries[cm.entry](pe, el, cm.idx, cm.data)
}

// SetLoadMeter attaches a live load meter: deliver reports every entry
// invocation's wall-clock nanoseconds to it. Must be called before Run.
func (a *Array) SetLoadMeter(m LoadMeter) {
	if a.rt.started.Load() {
		panic("charm: SetLoadMeter after Run")
	}
	a.meter = m
}

// ---------------------------------------------------------------------------
// Groups: one element per PE (Charm++ groups / node groups)

// GroupEntryFn is an entry method of a group.
type GroupEntryFn func(pe *converse.PE, elem Element, payload any)

// Group has exactly one element on every PE; sends address PEs directly.
// The Charm++ machine-level libraries (FFT, PME) are built as groups.
type Group struct {
	rt      *Runtime
	id      int
	name    string
	factory func(pe int) Element
	entries []GroupEntryFn
	elems   []Element
}

// NewGroup declares a group before the runtime starts.
func (rt *Runtime) NewGroup(name string, factory func(pe int) Element) *Group {
	if rt.started.Load() {
		panic("charm: NewGroup after Run")
	}
	g := &Group{rt: rt, name: name, factory: factory, elems: make([]Element, rt.machine.NumPEs())}
	rt.mu.Lock()
	g.id = len(rt.groups)
	rt.groups = append(rt.groups, g)
	rt.mu.Unlock()
	return g
}

// Entry registers a group entry method.
func (g *Group) Entry(fn GroupEntryFn) int {
	if g.rt.started.Load() {
		panic("charm: Entry after Run")
	}
	g.entries = append(g.entries, fn)
	return len(g.entries) - 1
}

func (g *Group) instantiateLocal(pe *converse.PE) {
	g.elems[pe.Id()] = g.factory(pe.Id())
}

// Local returns the group element of the given PE.
func (g *Group) Local(pe *converse.PE) Element { return g.elems[pe.Id()] }

// ElementOn returns the group element on PE id (test/readonly use).
func (g *Group) ElementOn(pe int) Element { return g.elems[pe] }

// Send asynchronously invokes entry on the group element of dstPE.
func (g *Group) Send(pe *converse.PE, dstPE, entry int, payload any, bytes int) error {
	if entry < 0 || entry >= len(g.entries) {
		return fmt.Errorf("charm: group %q entry %d unknown", g.name, entry)
	}
	return g.rt.send(pe, dstPE, charmMsg{kind: kindGroup, array: g.id, entry: entry, data: payload}, bytes)
}

// Broadcast invokes entry on every PE's element, travelling the Converse
// spanning tree rather than fanning out from the caller. The payload is
// shared across deliveries and must be treated as read-only.
func (g *Group) Broadcast(pe *converse.PE, entry int, payload any, bytes int) error {
	if entry < 0 || entry >= len(g.entries) {
		return fmt.Errorf("charm: group %q entry %d unknown", g.name, entry)
	}
	return g.rt.broadcast(pe, charmMsg{kind: kindGroup, array: g.id, entry: entry, data: payload}, bytes)
}

func (g *Group) deliver(pe *converse.PE, cm charmMsg) {
	g.entries[cm.entry](pe, g.elems[pe.Id()], cm.data)
}
