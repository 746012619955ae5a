package aggregate

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"blueq/internal/mempool"
)

// collector records flushed batches for assertions.
type collector struct {
	mu      sync.Mutex
	batches []*Batch
	dsts    []int
}

func (c *collector) flush(dst int, b *Batch) {
	c.mu.Lock()
	c.batches = append(c.batches, b)
	c.dsts = append(c.dsts, dst)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.batches)
}

func (c *collector) take() []*Batch {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.batches
	c.batches = nil
	c.dsts = nil
	return out
}

func newTestAgg(cfg Config, nodes int, c *collector) *Aggregator {
	return New(cfg, 0, nodes, mempool.NewPoolAllocator(1, 0), c.flush)
}

func TestNormalizeDefaults(t *testing.T) {
	var cfg Config
	cfg.Normalize()
	if cfg.MaxBatchBytes != DefaultMaxBatchBytes ||
		cfg.MaxBatchMsgs != DefaultMaxBatchMsgs || cfg.MaxDelay != DefaultMaxDelay {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	cfg = Config{MaxBatchMsgs: 1}
	cfg.Normalize()
	if cfg.MaxBatchMsgs < 2 {
		t.Fatalf("MaxBatchMsgs floor not enforced: %d", cfg.MaxBatchMsgs)
	}
}

func TestFlushOnMsgCount(t *testing.T) {
	c := &collector{}
	a := newTestAgg(Config{MaxBatchMsgs: 4, MaxDelay: time.Hour}, 2, c)
	for i := 0; i < 4; i++ {
		if !a.Append(1, 0, i, 8) {
			t.Fatalf("append %d rejected", i)
		}
	}
	if c.count() != 1 {
		t.Fatalf("want 1 full-flush batch, got %d", c.count())
	}
	b := c.take()[0]
	if b.Len() != 4 {
		t.Fatalf("batch holds %d items, want 4", b.Len())
	}
	if b.WireBytes() != batchHeaderBytes+4*(itemHeaderBytes+8) {
		t.Fatalf("wire bytes %d", b.WireBytes())
	}
	if a.Pending() != 0 {
		t.Fatalf("pending %d after full flush", a.Pending())
	}
	if s := a.Stats(); s.Flushes[FlushFull] != 1 || s.Messages != 4 {
		t.Fatalf("stats %+v", s)
	}
}

func TestFlushOnBytes(t *testing.T) {
	c := &collector{}
	a := newTestAgg(Config{MaxBatchBytes: 256, MaxBatchMsgs: 1 << 20, MaxDelay: time.Hour}, 2, c)
	n := 0
	for c.count() == 0 {
		a.Append(1, 0, n, 100)
		n++
		if n > 10 {
			t.Fatal("byte threshold never tripped")
		}
	}
	if got := c.take()[0].Len(); got != n {
		t.Fatalf("batch holds %d, appended %d", got, n)
	}
}

func TestFlushOnTimer(t *testing.T) {
	c := &collector{}
	a := newTestAgg(Config{MaxBatchMsgs: 1 << 20, MaxDelay: 5 * time.Millisecond}, 2, c)
	a.Append(1, 0, "x", 8)
	deadline := time.Now().Add(2 * time.Second)
	for c.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timer flush never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if s := a.Stats(); s.Flushes[FlushTimer] != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestIdleFlushAndPendingEarlyOut(t *testing.T) {
	c := &collector{}
	a := newTestAgg(Config{MaxDelay: time.Hour}, 3, c)
	a.FlushAll(FlushIdle) // empty: must be a no-op
	if c.count() != 0 {
		t.Fatal("flush of empty aggregator produced a batch")
	}
	a.Append(1, 0, "a", 8)
	a.Append(2, 0, "b", 8)
	if a.Pending() != 2 {
		t.Fatalf("pending %d, want 2", a.Pending())
	}
	a.FlushAll(FlushIdle)
	if c.count() != 2 || a.Pending() != 0 {
		t.Fatalf("idle flush: %d batches, pending %d", c.count(), a.Pending())
	}
	if s := a.Stats(); s.Flushes[FlushIdle] != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestRecycleReusesBatch(t *testing.T) {
	c := &collector{}
	a := newTestAgg(Config{MaxBatchMsgs: 2, MaxDelay: time.Hour}, 2, c)
	a.Append(1, 0, "a", 8)
	a.Append(1, 0, "b", 8)
	b1 := c.take()[0]
	a.Recycle(b1)
	a.Append(1, 0, "c", 8)
	a.Append(1, 0, "d", 8)
	b2 := c.take()[0]
	if b1 != b2 {
		t.Fatal("recycled batch not reused")
	}
	if b2.Len() != 2 || b2.Items[0] != "c" {
		t.Fatalf("reused batch carries stale state: %+v", b2.Items)
	}
}

func TestCloseFlushesAndRejects(t *testing.T) {
	c := &collector{}
	a := newTestAgg(Config{MaxDelay: time.Hour}, 2, c)
	a.Append(1, 0, "a", 8)
	a.Close()
	if c.count() != 1 {
		t.Fatalf("close flushed %d batches, want 1", c.count())
	}
	if a.Append(1, 0, "b", 8) {
		t.Fatal("append accepted after close")
	}
	a.Close() // idempotent
	if c.count() != 1 {
		t.Fatal("second close flushed again")
	}
}

func TestDiscardDropsWithoutFlush(t *testing.T) {
	c := &collector{}
	a := newTestAgg(Config{MaxDelay: time.Hour}, 2, c)
	a.Append(1, 0, "a", 8)
	a.Discard()
	if c.count() != 0 {
		t.Fatal("discard flushed a batch")
	}
	if a.Pending() != 0 {
		t.Fatalf("pending %d after discard", a.Pending())
	}
	if a.Append(1, 0, "b", 8) {
		t.Fatal("append accepted after discard")
	}
}

func TestEligible(t *testing.T) {
	c := &collector{}
	a := newTestAgg(Config{MaxDelay: time.Hour}, 2, c)
	if !a.Eligible(DefaultMaxMsgBytes) || a.Eligible(DefaultMaxMsgBytes+1) {
		t.Fatal("eligibility threshold wrong")
	}
	a.Close()
	if a.Eligible(8) {
		t.Fatal("eligible after close")
	}
}

func TestTimerRaceWithFullFlush(t *testing.T) {
	// A fire armed for one batch must not flush a younger one early.
	c := &collector{}
	a := newTestAgg(Config{MaxBatchMsgs: 2, MaxDelay: 2 * time.Millisecond}, 2, c)
	for round := 0; round < 50; round++ {
		a.Append(1, 0, round, 8)
		a.Append(1, 0, round, 8) // full flush, racing the armed timer
	}
	time.Sleep(20 * time.Millisecond)
	for _, b := range c.take() {
		if b.Len() != 2 {
			t.Fatalf("stale timer flushed a partial batch of %d", b.Len())
		}
	}
}

// A busy sender's batches leave full or flushed explicitly while a fire is
// pending, so the lazy timer's fire usually finds a batch younger than the
// one it was armed for. That batch still leaves on the timer MaxDelay after
// it opened: not at the stale fire, and not a whole MaxDelay after it. In
// a bubble (GOEXPERIMENT=synctest) the window holds exactly; on the wall
// clock a loaded host can stretch it.
func TestBusySenderFlushesWithinMaxDelay(t *testing.T) {
	bubble(t, func(t *testing.T) {
		const delay = 50 * time.Millisecond
		c := &collector{}
		a := newTestAgg(Config{MaxBatchMsgs: 1 << 20, MaxDelay: delay}, 2, c)
		a.Append(1, 0, "old", 8) // arms the timer
		time.Sleep(delay / 10)
		a.FlushDst(1, FlushExplicit) // the batch leaves before its fire ...
		opened := time.Now()
		a.Append(1, 0, "young", 8) // ... and a younger one opens under it
		deadline := time.Now().Add(5 * time.Second)
		for a.Stats().Flushes[FlushTimer] == 0 {
			if time.Now().After(deadline) {
				t.Fatal("the younger batch never left on the timer")
			}
			time.Sleep(time.Millisecond / 4)
		}
		waited := time.Since(opened)
		if waited < delay || waited >= delay*3/2 {
			t.Fatalf("batch left on the timer %v after opening, want within [MaxDelay, 1.5 MaxDelay) of %v", waited, delay)
		}
		if got := c.take(); len(got) != 2 || got[1].Items[0] != "young" {
			t.Fatalf("flushed %d batches, want the explicit one then the young one", len(got))
		}
	})
}

func TestConcurrentAppend(t *testing.T) {
	c := &collector{}
	alloc := mempool.NewPoolAllocator(4, 0)
	a := New(Config{MaxBatchMsgs: 8, MaxDelay: time.Millisecond}, 0, 4, alloc, c.flush)
	var wg sync.WaitGroup
	const per = 500
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Append(1+i%3, 0, i, 16)
			}
		}(w)
	}
	wg.Wait()
	a.Close()
	total := 0
	for _, b := range c.take() {
		total += b.Len()
	}
	if total != 4*per {
		t.Fatalf("flushed %d messages, appended %d", total, 4*per)
	}
	if s := a.Stats(); s.Messages != 4*per {
		t.Fatalf("stats messages %d", s.Messages)
	}
}

// Flushes run on every worker of a node and on the MaxDelay timer, all
// allocating from the opening worker's pool, which has one consumer: two
// concurrent flushes must never be handed the same buffer.
func TestConcurrentFlushesGetDistinctBuffers(t *testing.T) {
	var mu sync.Mutex
	inUse := map[*mempool.Buffer]bool{}
	var a *Aggregator
	dupes := 0
	a = New(Config{MaxBatchMsgs: 1}, 0, 5, mempool.NewPoolAllocator(1, 0), func(dst int, b *Batch) {
		mu.Lock()
		if inUse[b.buf] {
			dupes++
		}
		inUse[b.buf] = true
		mu.Unlock()
		runtime.Gosched() // hold the buffer while the other flushers run
		mu.Lock()
		delete(inUse, b.buf)
		mu.Unlock()
		a.Recycle(b)
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				a.Append(dst, 0, i, 16)
			}
		}(1 + w)
	}
	wg.Wait()
	if dupes != 0 {
		t.Fatalf("%d flushes were handed a buffer another flush held", dupes)
	}
}
