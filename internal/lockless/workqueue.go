package lockless

// WorkQueue is the PAMI-style lockless work queue (paper §III-A, last
// paragraph): worker threads post closures ("message and summing work
// requests"); a communication thread drains and executes them.
//
// It is an L2Queue of Work, with the MPI-compatible variant's
// ordering constraint available as an option. When Ordered is true the
// consumer must check the overflow queue before raising the bound — the
// extra locking the paper attributes to PAMI's MPI match-ordering
// requirement; this path exists so the ablation benchmarks can measure the
// cost Charm++ avoids.
type WorkQueue struct {
	q       *L2Queue[Work]
	ordered bool
}

// Work is a unit of work posted to a communication thread.
type Work func()

// NewWorkQueue returns a work queue with the given ring size (<=0 selects
// DefaultRingSize). ordered selects the MPI-compatible drain rule.
func NewWorkQueue(size int, ordered bool) *WorkQueue {
	return &WorkQueue{q: NewL2QueueOf[Work](size), ordered: ordered}
}

// Post enqueues w for execution by the consumer thread. Safe for concurrent
// use by many producers.
func (wq *WorkQueue) Post(w Work) { wq.q.Enqueue(w) }

// RunOne executes one pending work item, if any, and reports whether it did.
func (wq *WorkQueue) RunOne() bool {
	var w Work
	var ok bool
	if wq.ordered {
		// The paper: "lockless queues in PAMI must lock the overflow queue
		// and check if the overflow queue has messages before incrementing
		// the bound". Model that as a locked overflow peek on every dequeue,
		// draining the overflow queue first when it is non-empty — the
		// per-operation overhead the Charm++ queues avoid.
		wq.q.omu.Lock()
		hasOverflow := wq.q.olen.Load() > 0
		wq.q.omu.Unlock()
		if hasOverflow {
			w, ok = wq.q.popOverflow()
		}
	}
	if !ok {
		w, ok = wq.q.Dequeue()
	}
	if !ok {
		return false
	}
	w()
	return true
}

// Drain executes pending work until the queue is empty, returning the
// number of items executed.
func (wq *WorkQueue) Drain() int {
	n := 0
	for wq.RunOne() {
		n++
	}
	return n
}

// Empty reports whether no work is pending.
func (wq *WorkQueue) Empty() bool { return wq.q.Empty() }

// Len returns the approximate number of pending work items.
func (wq *WorkQueue) Len() int { return wq.q.Len() }
