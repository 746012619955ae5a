package charm

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"blueq/internal/converse"
)

// ReduceOp is a reduction operator over float64 vectors.
type ReduceOp int

const (
	// ReduceSum adds contributions element-wise.
	ReduceSum ReduceOp = iota
	// ReduceMax takes the element-wise maximum.
	ReduceMax
	// ReduceMin takes the element-wise minimum.
	ReduceMin
)

func (op ReduceOp) identity() float64 {
	switch op {
	case ReduceMax:
		return math.Inf(-1)
	case ReduceMin:
		return math.Inf(1)
	}
	return 0
}

func (op ReduceOp) combine(a, b float64) float64 {
	switch op {
	case ReduceMax:
		return math.Max(a, b)
	case ReduceMin:
		return math.Min(a, b)
	}
	return a + b
}

// ReductionTarget receives the final reduced vector on PE 0.
type ReductionTarget func(pe *converse.PE, result []float64)

// partial is one PE's fold of its elements' contributions to one
// reduction generation of one array. It opens at the PE's first
// contribution to the generation, leaves for the root at the PE's next
// drain (converse.Machine.OnDrain), and folds there into the generation's
// total. For quiescence detection an open or travelling partial is one
// message in flight: sent counts it when it opens, done when the root
// folds it.
type partial struct {
	a      *Array
	seq    uint64
	epoch  uint32 // recovery epoch of its contributions; it travels with it
	op     ReduceOp
	value  []float64
	count  int             // element contributions folded in
	target ReductionTarget // first non-nil target contributed
}

// peReductions holds one PE's open partials. Contribute and the drain run
// on the PE's own goroutine; the lock is for BeginRecovery, which clears
// them from another.
type peReductions struct {
	mu    sync.Mutex
	open  []*partial
	nOpen atomic.Int32 // len(open), so an idle drain reads one word
	out   []*partial   // the drain's scratch, owner goroutine only
	_     [64]byte     // keep neighbouring PEs off one cache line
}

// reductionState is the root's view of one array's in-flight reductions.
// Charm++ reductions are streaming: elements contribute in any order,
// across several concurrent generations distinguished by sequence number.
type reductionState struct {
	mu      sync.Mutex
	pending map[uint64]*partial
}

// Contribute folds this element's vector into reduction generation seq of
// the array using op. When all Len() elements of the array have contributed
// to generation seq, target fires on PE 0. All elements must pass the same
// op; at least one must pass a non-nil target for seq (passing the same
// closure everywhere is idiomatic). Call it from an entry method running
// on pe.
//
// Contributions combine per PE first: the first contribution of a PE to a
// generation opens the PE's partial (one copy of value), later ones fold
// into it in place, and the PE sends the partial to PE 0 when its scheduler
// next runs dry, carrying the first non-nil target it saw. PE 0 completes
// the generation when the partials' counts sum to Len(), so the root folds
// at most one message per PE per drain instead of one per element.
func (a *Array) Contribute(pe *converse.PE, seq uint64, value []float64, op ReduceOp, target ReductionTarget) error {
	rt := a.rt
	s := &rt.reductions[pe.Id()]
	epoch := rt.epoch.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.open {
		if p.a == a && p.seq == seq && p.epoch == epoch {
			if len(p.value) != len(value) {
				panic(fmt.Sprintf("charm: reduction %d of array %q: vector length %d vs %d",
					seq, a.name, len(p.value), len(value)))
			}
			for i, v := range value {
				p.value[i] = p.op.combine(p.value[i], v)
			}
			p.count++
			if p.target == nil {
				p.target = target
			}
			return nil
		}
	}
	s.open = append(s.open, &partial{
		a: a, seq: seq, epoch: epoch, op: op,
		value: append([]float64(nil), value...), count: 1, target: target,
	})
	s.nOpen.Store(int32(len(s.open)))
	rt.sent.Add(1)
	return nil
}

func (rt *Runtime) rootPE() int { return 0 }

// flushPartials is the runtime's OnDrain hook: every partial open on pe
// leaves for the root, so none outlives the PE's next drain. Partials fold
// on PE 0 directly; from anywhere else they travel as one kindReduction
// message each, stamped with their own epoch so one opened before a
// recovery drops at dispatch.
func (rt *Runtime) flushPartials(pe *converse.PE) {
	s := &rt.reductions[pe.Id()]
	if s.nOpen.Load() == 0 {
		return
	}
	s.mu.Lock()
	s.out = append(s.out[:0], s.open...)
	clear(s.open)
	s.open = s.open[:0]
	s.nOpen.Store(0)
	s.mu.Unlock()
	for i, p := range s.out {
		s.out[i] = nil
		if pe.Id() != rt.rootPE() {
			// Post fails only once this node's endpoints are shut down
			// (shutdown or fail-stop); the partial is then lost like any
			// other message in flight.
			_ = rt.post(pe, rt.rootPE(), charmMsg{kind: kindReduction, array: p.a.id, epoch: p.epoch, data: p}, 8*len(p.value))
			continue
		}
		if p.epoch == rt.epoch.Load() {
			p.a.reduceArrive(pe, p)
			rt.done.Add(1)
		}
	}
}

// reduceArrive folds one partial at the root; on completion the target
// fires there. The first partial of a generation becomes its running total.
func (a *Array) reduceArrive(pe *converse.PE, p *partial) {
	st := &a.red
	st.mu.Lock()
	if st.pending == nil {
		st.pending = make(map[uint64]*partial)
	}
	cur, ok := st.pending[p.seq]
	if !ok {
		cur = p
		st.pending[p.seq] = cur
	} else {
		if len(cur.value) != len(p.value) {
			st.mu.Unlock()
			panic(fmt.Sprintf("charm: reduction %d of array %q: vector length %d vs %d",
				p.seq, a.name, len(cur.value), len(p.value)))
		}
		for i := range cur.value {
			cur.value[i] = cur.op.combine(cur.value[i], p.value[i])
		}
		cur.count += p.count
		if cur.target == nil {
			cur.target = p.target
		}
	}
	if cur.count > a.n {
		st.mu.Unlock()
		panic(fmt.Sprintf("charm: reduction %d of array %q received %d contributions for %d elements",
			p.seq, a.name, cur.count, a.n))
	}
	doneNow := cur.count == a.n
	if doneNow {
		delete(st.pending, p.seq)
	}
	st.mu.Unlock()
	if doneNow {
		if cur.target == nil {
			panic(fmt.Sprintf("charm: reduction %d of array %q completed with no target", p.seq, a.name))
		}
		cur.target(pe, cur.value)
	}
}

// ---------------------------------------------------------------------------
// Quiescence detection

// DetectQuiescence blocks until no Charm++ messages are in flight and all
// delivered messages have been executed, then returns. Because the runtime
// counts sends and completions with exact atomic counters in one address
// space, quiescence is simply sent == done observed stably (the classic
// double-check that replaces Dijkstra-Scholten waves here).
//
// It must be called from outside the schedulers (e.g. the driving test or a
// monitoring goroutine), not from an entry method, which by definition is
// still executing a message.
func (rt *Runtime) DetectQuiescence() {
	for {
		s1, d1 := rt.sent.Load(), rt.done.Load()
		if s1 == d1 {
			s2, d2 := rt.sent.Load(), rt.done.Load()
			if s2 == s1 && d2 == d1 {
				return
			}
		}
		runtime.Gosched()
	}
}

// MessagesSent returns the total entry-method messages sent so far.
func (rt *Runtime) MessagesSent() int64 { return rt.sent.Load() }

// MessagesExecuted returns the total entry-method messages executed.
func (rt *Runtime) MessagesExecuted() int64 { return rt.done.Load() }
