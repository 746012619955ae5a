package pami

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/transport"
)

// A send channel that never hears an ack must raise the retry-streak
// observer at every multiple of RetryStreakThreshold, and an ack must
// clear the streak.
func TestRetryStreakObserverFires(t *testing.T) {
	tightRetries(t)
	tr, err := transport.New("faulty:seed=4,drop=1", 2, 1) // black hole
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	defer c.Node(0).Shutdown()
	defer c.Node(1).Shutdown()

	type firing struct{ src, dst, streak int }
	var mu sync.Mutex
	var fired []firing
	c.SetRetryStreakObserver(func(src, dst, streak int) {
		mu.Lock()
		fired = append(fired, firing{src, dst, streak})
		mu.Unlock()
	})

	if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, nil, 8); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(fired)
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("observer fired %d times, want >= 2", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, f := range fired[:2] {
		want := firing{0, 1, (i + 1) * RetryStreakThreshold}
		if f != want {
			t.Errorf("firing %d = %+v, want %+v", i, f, want)
		}
	}
}

func TestAckClearsRetryStreak(t *testing.T) {
	tightRetries(t)
	// Heavy but not total loss: retries accumulate streaks, acks
	// eventually land and must reset them to zero.
	tr, err := transport.New("faulty:seed=21,drop=0.5", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	defer c.Node(0).Shutdown()
	defer c.Node(1).Shutdown()
	c.Node(1).Context(0).RegisterDispatch(1, func(int, any, int) {})

	if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, nil, 8); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.Node(1).Context(0).Advance()
		c.Node(0).Context(0).Advance()
		rel := c.Node(0).rel
		rel.mu.Lock()
		st := rel.send[1]
		drained := st != nil && len(st.window) == 0
		streak := 0
		if st != nil {
			streak = st.streak
		}
		rel.mu.Unlock()
		if drained {
			if streak != 0 {
				t.Fatalf("channel drained but streak = %d, want 0", streak)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("channel never drained")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// KickRetransmit must retransmit the pending window immediately — without
// waiting out the accumulated exponential backoff — and reset the backoff.
func TestKickRetransmitBypassesBackoff(t *testing.T) {
	base, max := RetryBase, RetryMax
	RetryBase, RetryMax = 10*time.Millisecond, 10*time.Second
	t.Cleanup(func() { RetryBase, RetryMax = base, max })

	tr, err := transport.New("faulty:seed=4,drop=1", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	defer c.Node(0).Shutdown()
	defer c.Node(1).Shutdown()

	if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, nil, 8); err != nil {
		t.Fatal(err)
	}
	// Let a few retries fire so the backoff climbs well past RetryBase.
	deadline := time.Now().Add(5 * time.Second)
	for c.Node(0).ReliabilityStats().Retries < 3 {
		if time.Now().After(deadline) {
			t.Fatal("retries never accumulated")
		}
		time.Sleep(time.Millisecond)
	}
	before := c.Node(0).ReliabilityStats().Retries
	c.Node(0).KickRetransmit(1)
	if got := c.Node(0).ReliabilityStats().Retries; got != before+1 {
		t.Fatalf("retries = %d after kick, want %d (immediate retransmission)", got, before+1)
	}
	// Kicking an idle channel (or one to a peer never sent to) is a no-op.
	c.Node(0).KickRetransmit(0)
	c.Node(1).KickRetransmit(0)
}

// The reroute acceptance test at the PAMI layer: a stream is cut mid-flight
// by a link failure, the router detours, the kicked retransmissions drain
// the window — and every message still arrives exactly once, in order.
func TestRerouteDrainsWindowWithoutDuplicates(t *testing.T) {
	tightRetries(t)
	// 4 nodes: 0→1 goes over link 0-1 until it dies, then detours 0→2→3→1.
	tr, err := transport.New("faulty:seed=7,unreliable=1", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	for r := 0; r < 4; r++ {
		defer c.Node(r).Shutdown()
	}

	const msgs = 200
	var mu sync.Mutex
	counts := make(map[int]int, msgs)
	order := make([]int, 0, msgs)
	c.Node(1).Context(0).RegisterDispatch(1, func(src int, data any, bytes int) {
		mu.Lock()
		counts[data.(int)]++
		order = append(order, data.(int))
		mu.Unlock()
	})

	var failed atomic.Bool
	for i := 0; i < msgs; i++ {
		if i == msgs/2 {
			// Cut the primary link mid-stream. Packets in flight on it are
			// lost; the send window holds them for retransmission over the
			// detour.
			if err := tr.Torus().FailLink(0, 1); err != nil {
				t.Fatal(err)
			}
			failed.Store(true)
			c.Node(0).KickRetransmit(1)
		}
		if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, i, 8); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		c.Node(1).Context(0).Advance()
		c.Node(0).Context(0).Advance()
		tr.Advance()
		mu.Lock()
		n := len(counts)
		mu.Unlock()
		if n == msgs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d distinct messages after reroute", n, msgs)
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(20 * time.Millisecond)
	c.Node(1).Context(0).Advance()
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < msgs; i++ {
		if counts[i] != 1 {
			t.Fatalf("message %d dispatched %d times, want exactly once", i, counts[i])
		}
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("position %d got message %d: FIFO order broken across reroute", i, v)
		}
	}
	if !failed.Load() {
		t.Fatal("link failure never injected")
	}
	if tr.Torus().Reroutes() == 0 {
		t.Fatal("stream completed without the router ever rerouting")
	}
}
