package transport

import (
	"container/heap"
	"runtime"
	"sync"
	"time"

	"blueq/internal/torus"
)

// delayLine holds packets in flight until their release time, then injects
// them into the inner transport in strict (release time, submission order)
// order. The injecting thread delivers a packet already due itself; only
// packets that carry a delay (and anything queued behind them) wait for the
// single background goroutine, and Advance lets callers drain due packets
// synchronously. Serializing all deliveries under deliverMu preserves
// per-(src,dst) FIFO order whenever release times are monotone per pair,
// which the contended backend guarantees by FCFS link booking.
type delayLine struct {
	deliver func(src int, p torus.Packet)

	// deliverMu serializes delivery batches so concurrent Advance calls
	// cannot interleave pops out of release order.
	deliverMu sync.Mutex

	mu      sync.Mutex
	flights flightHeap
	seq     uint64
	closed  bool

	wake chan struct{}
	done chan struct{}
}

type flight struct {
	due time.Time
	seq uint64 // submission order, FIFO tie-break for equal release times
	src int
	pkt torus.Packet
}

type flightHeap []flight

func (h flightHeap) Len() int { return len(h) }
func (h flightHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h flightHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *flightHeap) Push(x any)   { *h = append(*h, x.(flight)) }
func (h *flightHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	*h = old[:n-1]
	return f
}

func newDelayLine(deliver func(src int, p torus.Packet)) *delayLine {
	dl := &delayLine{
		deliver: deliver,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go dl.run()
	return dl
}

// schedule books p for delivery at due. Packets scheduled after close are
// dropped, like packets on the wire at teardown. A due packet is delivered
// before schedule returns when nothing is queued and no delivery batch is
// running; otherwise it is queued, never waiting for another batch.
func (dl *delayLine) schedule(due time.Time, src int, p torus.Packet) {
	if due.After(time.Now()) || !dl.deliverInline(src, p) {
		dl.queue(due, src, p)
	}
}

// scheduleDue is schedule for a packet due now. It reads the clock only
// when the packet has to queue.
func (dl *delayLine) scheduleDue(src int, p torus.Packet) {
	if !dl.deliverInline(src, p) {
		dl.queue(time.Now(), src, p)
	}
}

// deliverInline delivers p on the calling thread if nothing is queued and
// no delivery batch is running, and reports whether it did.
func (dl *delayLine) deliverInline(src int, p torus.Packet) bool {
	if !dl.deliverMu.TryLock() {
		return false
	}
	dl.mu.Lock()
	idle := !dl.closed && len(dl.flights) == 0
	dl.mu.Unlock()
	if idle {
		dl.deliver(src, p)
	}
	dl.deliverMu.Unlock()
	return idle
}

// queue books p on the heap for the delivery goroutine or Advance.
func (dl *delayLine) queue(due time.Time, src int, p torus.Packet) {
	dl.mu.Lock()
	if dl.closed {
		dl.mu.Unlock()
		return
	}
	dl.seq++
	heap.Push(&dl.flights, flight{due: due, seq: dl.seq, src: src, pkt: p})
	dl.mu.Unlock()
	select {
	case dl.wake <- struct{}{}:
	default:
	}
}

// advance delivers every due flight, returning the count delivered.
func (dl *delayLine) advance() int {
	dl.deliverMu.Lock()
	defer dl.deliverMu.Unlock()
	n := 0
	for {
		dl.mu.Lock()
		if dl.closed || len(dl.flights) == 0 || dl.flights[0].due.After(time.Now()) {
			dl.mu.Unlock()
			return n
		}
		f := heap.Pop(&dl.flights).(flight)
		dl.mu.Unlock()
		// Deliver outside dl.mu: the inner Inject fires arrival hooks
		// (wakeup-unit signals) that must not run under transport locks.
		dl.deliver(f.src, f.pkt)
		n++
	}
}

// pending reports whether flights remain queued.
func (dl *delayLine) pending() bool {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	return len(dl.flights) > 0
}

// spinHorizon is the wait below which the delivery goroutine yields
// instead of arming a timer: modelled link delays are sub-microsecond,
// far below timer resolution.
const spinHorizon = 100 * time.Microsecond

func (dl *delayLine) run() {
	defer close(dl.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	// spun is the wait the last yield saw. A running clock moves across a
	// yield, so the spin goes on; a clock that stands still while nothing
	// blocks (a testing/synctest bubble's) would spin forever, so the
	// line parks on its timer instead and lets that clock advance.
	var spun time.Duration
	for {
		dl.mu.Lock()
		if dl.closed {
			dl.mu.Unlock()
			return
		}
		wait := time.Hour // idle: sleep until schedule() wakes us
		if len(dl.flights) > 0 {
			wait = time.Until(dl.flights[0].due)
		}
		dl.mu.Unlock()
		switch {
		case wait <= 0:
			dl.advance() // only with a flight due: an idle line never blocks inline delivery
		case wait < spinHorizon && wait != spun:
			spun = wait
			runtime.Gosched()
		default:
			timer.Reset(wait)
			select {
			case <-dl.wake:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
			}
		}
	}
}

// close stops the delivery goroutine; queued flights are dropped.
func (dl *delayLine) close() {
	dl.mu.Lock()
	if dl.closed {
		dl.mu.Unlock()
		return
	}
	dl.closed = true
	dl.flights = nil
	dl.mu.Unlock()
	select {
	case dl.wake <- struct{}{}:
	default:
	}
	<-dl.done
}
