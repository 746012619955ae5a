package wakeup

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSignalBeforeWaitIsLatched(t *testing.T) {
	u := NewUnit()
	u.Signal()
	done := make(chan struct{})
	go func() {
		if !u.Wait() {
			t.Error("Wait returned false")
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("latched event was lost")
	}
}

func TestWaitBlocksUntilSignal(t *testing.T) {
	u := NewUnit()
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(started)
		u.Wait()
		close(done)
	}()
	<-started
	// Give the waiter time to park.
	for i := 0; i < 100 && !u.Waiting(); i++ {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("Wait returned without a signal")
	default:
	}
	u.Signal()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("signal did not wake waiter")
	}
}

func TestMultipleSignalsCoalesce(t *testing.T) {
	u := NewUnit()
	u.Signal()
	u.Signal()
	u.Signal()
	if !u.Wait() {
		t.Fatal("first Wait failed")
	}
	// All three signals coalesced into one latched event; the next Wait
	// must block.
	woke := make(chan struct{})
	go func() {
		u.Wait()
		close(woke)
	}()
	select {
	case <-woke:
		t.Fatal("coalesced signals woke Wait twice")
	case <-time.After(50 * time.Millisecond):
	}
	u.Signal() // release the goroutine
	<-woke
}

func TestCloseReleasesWaiter(t *testing.T) {
	u := NewUnit()
	done := make(chan bool, 1)
	go func() { done <- u.Wait() }()
	for i := 0; i < 100 && !u.Waiting(); i++ {
		time.Sleep(time.Millisecond)
	}
	u.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Wait returned true after Close with no event")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not release waiter")
	}
	if u.Wait() {
		t.Fatal("Wait after Close returned true")
	}
}

func TestWakesCount(t *testing.T) {
	u := NewUnit()
	for i := 0; i < 5; i++ {
		u.Signal()
		u.Wait()
	}
	if got := u.Wakes(); got != 5 {
		t.Fatalf("Wakes = %d, want 5", got)
	}
}

// A comm-thread-shaped loop: producer posts N work items, consumer sleeps
// between bursts; every item must be observed.
func TestProducerConsumerNoLostWakeups(t *testing.T) {
	u := NewUnit()
	const items = 10000
	var mu sync.Mutex
	queue := 0
	consumed := 0
	done := make(chan struct{})
	go func() { // consumer
		defer close(done)
		for consumed < items {
			mu.Lock()
			n := queue
			queue = 0
			mu.Unlock()
			consumed += n
			if consumed >= items {
				return
			}
			if n == 0 {
				u.Wait()
			}
		}
	}()
	for i := 0; i < items; i++ { // producer
		mu.Lock()
		queue++
		mu.Unlock()
		u.Signal()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("consumer stalled; a wakeup was lost (consumed=%d)", consumed)
	}
}

// parkedUnit waits until a Park watching g is blocked in its unit's Wait
// and returns that unit.
func parkedUnit(t *testing.T, g *Gate) *Unit {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		var u *Unit
		g.mu.Lock()
		for w := range g.units {
			u = w
		}
		g.mu.Unlock()
		if u != nil && u.Waiting() {
			return u
		}
	}
	t.Fatal("Park never blocked on the gate")
	return nil
}

func TestParkOneOpenOneWake(t *testing.T) {
	var g Gate
	var ready atomic.Bool
	done := make(chan bool, 1)
	go func() { done <- Park(ready.Load, nil, 10*time.Second, &g) }()
	u := parkedUnit(t, &g)
	ready.Store(true)
	g.Open()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Park reported the deadline after an Open")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Open did not wake the parked waiter")
	}
	if got := u.Wakes(); got != 1 {
		t.Fatalf("Wakes = %d, want 1", got)
	}
	if g.Waiting() {
		t.Fatal("the waiter still watches the gate after Park returned")
	}
}

func TestParkReturnsFalseAtMaxBlock(t *testing.T) {
	var g Gate
	const maxBlock = 20 * time.Millisecond
	start, progressed := time.Now(), 0
	if Park(func() bool { return false }, func() { progressed++ }, maxBlock, &g) {
		t.Fatal("Park succeeded on an always-false condition")
	}
	if e := time.Since(start); e < maxBlock || e > maxBlock+time.Second {
		t.Fatalf("Park gave up after %v, want about %v", e, maxBlock)
	}
	if progressed == 0 {
		t.Fatal("progress never ran while parked")
	}
}

func TestParkProgressBeforeFirstWaitAndAfterEveryWake(t *testing.T) {
	var g Gate
	var ready atomic.Bool
	var progress atomic.Int64
	done := make(chan bool, 1)
	go func() {
		done <- Park(ready.Load, func() { progress.Add(1) }, 10*time.Second, &g)
	}()
	u := parkedUnit(t, &g)
	// One run per try: the one that registers the unit and the one after
	// registering.
	if got := progress.Load(); got != 2 {
		t.Fatalf("progress ran %d times before the first wait, want 2", got)
	}
	const wakes = 5
	for i := 1; i <= wakes; i++ {
		g.Open() // the condition still fails: the waiter parks again
		for u.Wakes() != uint64(i) || !u.Waiting() {
			time.Sleep(100 * time.Microsecond)
		}
		if got := progress.Load(); got != int64(2+i) {
			t.Fatalf("after wake %d progress ran %d times, want %d", i, got, 2+i)
		}
	}
	ready.Store(true)
	g.Open()
	if !<-done {
		t.Fatal("Park reported the deadline after an Open")
	}
	if got := progress.Load(); got != wakes+3 {
		t.Fatalf("progress ran %d times over %d wakes, want %d", got, wakes+1, wakes+3)
	}
}

// An Open racing the waiter's registration must never be lost: the waiter
// registers before testing its condition, so one of the two sees the other.
func TestParkOpenRacesLoseNoWakeup(t *testing.T) {
	var g Gate
	for i := 0; i < 10000; i++ {
		var ready atomic.Bool
		go func() {
			ready.Store(true)
			g.Open()
		}()
		if !Park(ready.Load, nil, 5*time.Second, &g) {
			t.Fatalf("race %d: the Open was lost and Park ran to its deadline", i)
		}
	}
}

func BenchmarkSignalWaitRoundTrip(b *testing.B) {
	u := NewUnit()
	go func() {
		for {
			if !u.Wait() {
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Signal()
	}
	b.StopTimer()
	u.Close()
}
