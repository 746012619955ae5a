package lockless

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestL2QueueFIFOWithinRing(t *testing.T) {
	q := NewL2Queue(8)
	for i := 0; i < 5; i++ {
		q.Enqueue(i)
	}
	for i := 0; i < 5; i++ {
		v, ok := q.Dequeue()
		if !ok || v.(int) != i {
			t.Fatalf("dequeue %d: got %v ok=%v", i, v, ok)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue from empty queue succeeded")
	}
}

func TestL2QueueEmptyAndLen(t *testing.T) {
	q := NewL2Queue(4)
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("new queue not empty")
	}
	q.Enqueue("a")
	if q.Empty() || q.Len() != 1 {
		t.Fatalf("Empty=%v Len=%d after one enqueue", q.Empty(), q.Len())
	}
	q.Dequeue()
	if !q.Empty() {
		t.Fatal("queue not empty after draining")
	}
}

func TestL2QueueRingSizePowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {1000, 1024}, {0, DefaultRingSize}, {-1, DefaultRingSize},
	} {
		q := NewL2Queue(tc.in)
		if q.RingCap() != tc.want {
			t.Errorf("NewL2Queue(%d).RingCap() = %d, want %d", tc.in, q.RingCap(), tc.want)
		}
	}
}

func TestL2QueueOverflow(t *testing.T) {
	q := NewL2Queue(4)
	for i := 0; i < 10; i++ {
		q.Enqueue(i)
	}
	if q.OverflowLen() != 6 {
		t.Fatalf("OverflowLen = %d, want 6", q.OverflowLen())
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d, want 10", q.Len())
	}
	got := map[int]bool{}
	for i := 0; i < 10; i++ {
		v, ok := q.Dequeue()
		if !ok {
			t.Fatalf("dequeue %d failed", i)
		}
		got[v.(int)] = true
	}
	if len(got) != 10 {
		t.Fatalf("got %d distinct values, want 10", len(got))
	}
	if q.OverflowLen() != 0 || !q.Empty() {
		t.Fatal("queue not empty after full drain")
	}
}

// Slots freed by the consumer are reused by later producers (wraparound).
func TestL2QueueWraparound(t *testing.T) {
	q := NewL2Queue(4)
	for round := 0; round < 100; round++ {
		q.Enqueue(round)
		v, ok := q.Dequeue()
		if !ok || v.(int) != round {
			t.Fatalf("round %d: got %v ok=%v", round, v, ok)
		}
	}
	if q.OverflowLen() != 0 {
		t.Fatal("wraparound spilled to overflow")
	}
}

// The paper's central claim: many producers may concurrently enqueue to one
// consumer; every message is delivered exactly once. The ring is small, so
// the run wraps it many times and spills to the overflow queue; it runs
// with boxed items and with by-value items wider than a word.
func TestL2QueueConcurrentProducers(t *testing.T) {
	t.Run("any", func(t *testing.T) {
		exactlyOnce(t, NewL2Queue(64),
			func(p, i int) any { return [2]int{p, i} },
			func(v any) [2]int { return v.([2]int) })
	})
	type pair struct{ a, b uint64 }
	t.Run("value", func(t *testing.T) {
		exactlyOnce(t, NewL2QueueOf[pair](64),
			func(p, i int) pair { return pair{uint64(p), uint64(i)} },
			func(v pair) [2]int { return [2]int{int(v.a), int(v.b)} })
	})
}

func exactlyOnce[T any](t *testing.T, q *L2Queue[T], mk func(p, i int) T, key func(T) [2]int) {
	const producers = 16
	const perP = 5000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				q.Enqueue(mk(p, i))
			}
		}(p)
	}
	got := map[[2]int]bool{}
	for len(got) < producers*perP {
		if v, ok := q.Dequeue(); ok {
			k := key(v)
			if got[k] {
				t.Fatalf("message %v delivered twice", k)
			}
			got[k] = true
		}
	}
	wg.Wait()
	if v, ok := q.Dequeue(); ok {
		t.Fatalf("extra message %v after all delivered", v)
	}
}

func TestMutexQueueBasic(t *testing.T) {
	q := NewMutexQueue()
	if !q.Empty() {
		t.Fatal("new queue not empty")
	}
	for i := 0; i < 10; i++ {
		q.Enqueue(i)
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 10; i++ {
		v, ok := q.Dequeue()
		if !ok || v.(int) != i {
			t.Fatalf("dequeue %d: got %v ok=%v", i, v, ok)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue from empty succeeded")
	}
}

func TestMutexQueueConcurrent(t *testing.T) {
	const producers = 8
	const perP = 3000
	q := NewMutexQueue()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				q.Enqueue(p*perP + i)
			}
		}(p)
	}
	got := map[int]bool{}
	for len(got) < producers*perP {
		if v, ok := q.Dequeue(); ok {
			got[v.(int)] = true
		}
	}
	wg.Wait()
}

// Property: for any interleaved sequence of enqueues and dequeues performed
// sequentially, both queue types deliver the same multiset.
func TestQuickQueueEquivalence(t *testing.T) {
	f := func(ops []uint8) bool {
		lq := NewL2Queue(4)
		mq := NewMutexQueue()
		lGot, mGot := map[int]int{}, map[int]int{}
		next := 0
		for _, op := range ops {
			if op%3 == 0 { // dequeue
				if v, ok := lq.Dequeue(); ok {
					lGot[v.(int)]++
				}
				if v, ok := mq.Dequeue(); ok {
					mGot[v.(int)]++
				}
			} else {
				lq.Enqueue(next)
				mq.Enqueue(next)
				next++
			}
		}
		for {
			v, ok := lq.Dequeue()
			if !ok {
				break
			}
			lGot[v.(int)]++
		}
		for {
			v, ok := mq.Dequeue()
			if !ok {
				break
			}
			mGot[v.(int)]++
		}
		if len(lGot) != next || len(mGot) != next {
			return false
		}
		for k, n := range lGot {
			if n != 1 || mGot[k] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkQueueExecutes(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		wq := NewWorkQueue(8, ordered)
		sum := 0
		for i := 1; i <= 20; i++ { // spills past the 8-slot ring
			i := i
			wq.Post(func() { sum += i })
		}
		if n := wq.Drain(); n != 20 {
			t.Fatalf("ordered=%v: drained %d items, want 20", ordered, n)
		}
		if sum != 210 {
			t.Fatalf("ordered=%v: sum = %d, want 210", ordered, sum)
		}
		if !wq.Empty() || wq.Len() != 0 {
			t.Fatalf("ordered=%v: queue not empty after drain", ordered)
		}
	}
}

func TestWorkQueueConcurrentPost(t *testing.T) {
	wq := NewWorkQueue(32, false)
	const producers = 8
	const perP = 2000
	var wg sync.WaitGroup
	var mu sync.Mutex
	count := 0
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				wq.Post(func() {
					mu.Lock()
					count++
					mu.Unlock()
				})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			wq.Drain()
			mu.Lock()
			c := count
			mu.Unlock()
			if c == producers*perP {
				return
			}
		}
	}()
	wg.Wait()
	<-done
}

// queue is what the producer benchmarks drive: the L2 ring and its Fig 8
// mutex baseline.
type queue interface {
	Enqueue(any)
	Dequeue() (any, bool)
}

func benchQueue(b *testing.B, mk func() queue, producers int) {
	q := mk()
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // consumer
		defer wg.Done()
		for {
			if _, ok := q.Dequeue(); !ok {
				select {
				case <-done:
					for {
						if _, ok := q.Dequeue(); !ok {
							return
						}
					}
				default:
				}
			}
		}
	}()
	b.ResetTimer()
	var pwg sync.WaitGroup
	per := b.N / producers
	if per == 0 {
		per = 1
	}
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for i := 0; i < per; i++ {
				q.Enqueue(i)
			}
		}()
	}
	pwg.Wait()
	close(done)
	wg.Wait()
}

func BenchmarkL2QueueProducers(b *testing.B) {
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchQueue(b, func() queue { return NewL2Queue(1024) }, p)
		})
	}
}

func BenchmarkMutexQueueProducers(b *testing.B) {
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchQueue(b, func() queue { return NewMutexQueue() }, p)
		})
	}
}

// The overflow cap must bound producer-side memory under a stalled
// consumer: with the ring full and the overflow at its cap, Enqueue parks
// until the consumer drains (or the liveness escape fires).
func TestL2QueueOverflowCapParksProducer(t *testing.T) {
	q := NewL2Queue(2)
	q.SetOverflowCap(4, 10*time.Second)
	// Fill the ring (2 slots) and the overflow to its cap.
	for i := 0; i < 2+4; i++ {
		q.Enqueue(i)
	}
	if got := q.OverflowLen(); got != 4 {
		t.Fatalf("OverflowLen = %d, want 4 (at cap)", got)
	}

	unblocked := make(chan struct{})
	go func() {
		q.Enqueue(99) // must park: ring full, overflow at cap
		close(unblocked)
	}()
	select {
	case <-unblocked:
		t.Fatal("Enqueue did not park at the overflow cap")
	case <-time.After(5 * time.Millisecond):
	}

	// One dequeue drains the ring head; the ring slot reopens but the
	// overflow stays at cap, so the producer stays parked until overflow
	// messages drain too.
	for i := 0; i < 3; i++ { // 2 ring slots + 1 overflow message
		if _, ok := q.Dequeue(); !ok {
			t.Fatalf("dequeue %d failed", i)
		}
	}
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("Enqueue stayed parked after the overflow drained below cap")
	}
	// Everything still arrives exactly once.
	got := map[int]bool{}
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		got[v.(int)] = true
	}
	if !got[99] {
		t.Fatal("parked message lost")
	}
}

// The MaxBlock escape must let a producer through a wedged queue: bounded
// blocking degrades to slow spill, never deadlock.
func TestL2QueueOverflowCapEscapesAfterMaxBlock(t *testing.T) {
	q := NewL2Queue(2)
	q.SetOverflowCap(1, 10*time.Millisecond)
	for i := 0; i < 3; i++ { // ring (2) + overflow cap (1)
		q.Enqueue(i)
	}
	done := make(chan struct{})
	go func() {
		q.Enqueue(3) // no consumer: must escape after ~MaxBlock
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Enqueue never escaped the cap with no consumer")
	}
	if got := q.OverflowLen(); got != 2 {
		t.Fatalf("OverflowLen = %d after escape, want 2", got)
	}
}
