package flowctl

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestConfigNormalize(t *testing.T) {
	var c Config
	c.Normalize()
	if c.Window != DefaultWindow || c.OverflowCap != DefaultOverflowCap ||
		c.BurstLimit != DefaultBurstLimit || c.MaxBlock != DefaultMaxBlock {
		t.Fatalf("zero config did not pick defaults: %+v", c)
	}
}

// A sender parked on an exhausted window resumes once at most half the
// (effective) window is in flight, not at the first returned credit.
func TestWindowAcquireRelease(t *testing.T) {
	for _, tc := range []struct {
		name             string
		window, pressure int
		resumeAfter      int // single-credit releases the parked sender needs
	}{
		{name: "window 4 resumes at half", window: 4, resumeAfter: 2},
		{name: "window 1 resumes at 0", window: 1, resumeAfter: 1},
		{name: "a shrunk window uses the shrunk limit", window: 8, pressure: 1, resumeAfter: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctl := NewController(Config{Window: tc.window, MaxBlock: 10 * time.Second}, 2)
			ctl.SetPressure(0, tc.pressure)
			w := ctl.Window(0, 1)
			limit := int(ctl.effectiveWindow())
			for i := 0; i < limit; i++ {
				if !w.Acquire(nil) {
					t.Fatalf("acquire %d should have credit", i)
				}
			}
			if w.Available() != 0 {
				t.Fatalf("Available = %d, want 0", w.Available())
			}

			// One more acquire parks; it stays parked until the
			// resumeAfter-th release.
			done := make(chan bool, 1)
			go func() { done <- w.Acquire(nil) }()
			for i := 0; i < tc.resumeAfter; i++ {
				select {
				case <-done:
					t.Fatalf("parked acquire resumed after %d releases, want %d", i, tc.resumeAfter)
				case <-time.After(2 * time.Millisecond):
				}
				w.Release(1)
			}
			select {
			case ok := <-done:
				if !ok {
					t.Fatal("unblocked acquire reported overdraft")
				}
			case <-time.After(time.Second):
				t.Fatalf("%d releases did not unblock the parked acquire", tc.resumeAfter)
			}
			if got, want := w.InFlight(), int64(limit-tc.resumeAfter+1); got != want {
				t.Fatalf("InFlight = %d after resuming, want %d", got, want)
			}
		})
	}
}

// A parked sender sleeps until something it watches changes: with no
// credit returned, progress runs before the park's first wait and then
// not again until the MaxBlock deadline wakes it. The credit-park
// counterpart of pami's TestCommThreadSleepsWhenIdle.
func TestParkedSenderSleepsWithoutCredit(t *testing.T) {
	const maxBlock = 50 * time.Millisecond
	ctl := NewController(Config{Window: 1, MaxBlock: maxBlock}, 2)
	w := ctl.Window(0, 1)
	w.Acquire(nil)
	var start time.Time
	runs, mid := 0, 0
	progress := func() {
		runs++
		if e := time.Since(start); e >= 5*time.Millisecond && e < maxBlock {
			mid++
		}
	}
	start = time.Now()
	if w.Acquire(progress) {
		t.Fatal("acquire with no credit returned should end on overdraft")
	}
	if runs == 0 {
		t.Fatal("progress never ran while parked")
	}
	if mid != 0 {
		t.Fatalf("progress ran %d times between 5 ms and MaxBlock with nothing to wake the sender (%d in all)", mid, runs)
	}
}

func TestWindowOverdraftAfterMaxBlock(t *testing.T) {
	ctl := NewController(Config{Window: 1, MaxBlock: 5 * time.Millisecond}, 2)
	w := ctl.Window(0, 1)
	w.Acquire(nil)
	start := time.Now()
	if w.Acquire(nil) {
		t.Fatal("second acquire should be an overdraft")
	}
	if e := time.Since(start); e < 4*time.Millisecond {
		t.Fatalf("overdraft granted after %v, want ~MaxBlock", e)
	}
	if w.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2 (overdraft still accounted)", w.InFlight())
	}
}

func TestPressureShrinksWindow(t *testing.T) {
	ctl := NewController(Config{Window: 8}, 2)
	if got := ctl.effectiveWindow(); got != 8 {
		t.Fatalf("effectiveWindow = %d, want 8", got)
	}
	ctl.SetPressure(0, 1)
	if got := ctl.effectiveWindow(); got != 4 {
		t.Fatalf("soft pressure: effectiveWindow = %d, want 4", got)
	}
	if ctl.State() != StateThrottled {
		t.Fatalf("State = %d, want throttled", ctl.State())
	}
	ctl.SetPressure(1, 2)
	if got := ctl.effectiveWindow(); got != 2 {
		t.Fatalf("hard pressure: effectiveWindow = %d, want 2", got)
	}
	if ctl.State() != StateShedding {
		t.Fatalf("State = %d, want shedding", ctl.State())
	}
	// Clearing one source keeps the max of the others.
	ctl.SetPressure(1, 0)
	if got := ctl.PressureLevel(); got != 1 {
		t.Fatalf("PressureLevel = %d, want 1", got)
	}
	ctl.SetPressure(0, 0)
	if ctl.State() != StateFull {
		t.Fatalf("State = %d, want full", ctl.State())
	}
}

func TestTryShedOnlyUnderHardPressure(t *testing.T) {
	ctl := NewController(Config{}, 2)
	if ctl.TryShed(0) {
		t.Fatal("shed at full speed")
	}
	ctl.SetPressure(0, 1)
	if ctl.TryShed(0) {
		t.Fatal("shed while merely throttled")
	}
	ctl.SetPressure(0, 2)
	if !ctl.TryShed(0) {
		t.Fatal("no shed under hard pressure")
	}
	if ctl.ShedCount() != 1 {
		t.Fatalf("ShedCount = %d, want 1", ctl.ShedCount())
	}
}

func TestDropPeerReleasesParkedSenders(t *testing.T) {
	ctl := NewController(Config{Window: 1, MaxBlock: 10 * time.Second}, 3)
	w := ctl.Window(0, 2)
	w.Acquire(nil)
	done := make(chan struct{})
	go func() {
		w.Acquire(nil)
		close(done)
	}()
	for deadline := time.Now().Add(5 * time.Second); ctl.BlockedSenders() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the second acquire never parked")
		}
		runtime.Gosched()
	}
	ctl.DropPeer(2)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("DropPeer did not release the parked sender")
	}
	if !w.Dead() || !ctl.Window(2, 0).Dead() {
		t.Fatal("windows touching the dead peer should be marked dead")
	}
	if ctl.Window(0, 1).Dead() {
		t.Fatal("window between survivors marked dead")
	}
	// Future acquires toward the dead peer pass without accounting.
	if !w.Acquire(nil) || w.InFlight() != 0 {
		t.Fatalf("dead window should grant without accounting (inflight=%d)", w.InFlight())
	}
}

func TestWindowConcurrentAcquireRelease(t *testing.T) {
	ctl := NewController(Config{Window: 16, MaxBlock: 30 * time.Second}, 2)
	w := ctl.Window(0, 1)
	const (
		producers = 8
		perProd   = 500
	)
	var wg sync.WaitGroup
	wg.Add(2 * producers)
	for p := 0; p < producers; p++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				w.Acquire(nil)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				for w.InFlight() == 0 {
					time.Sleep(10 * time.Microsecond)
				}
				w.Release(1)
			}
		}()
	}
	wg.Wait()
	if got := w.InFlight(); got < 0 || got > 16 {
		t.Fatalf("InFlight = %d after balanced acquire/release, want within [0,16]", got)
	}
}
