package pami

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"blueq/internal/transport"
)

// tightRetries shrinks the retransmission timers for the duration of a
// test so recovery from injected drops takes milliseconds, not seconds.
func tightRetries(t *testing.T) {
	t.Helper()
	base, max := RetryBase, RetryMax
	RetryBase, RetryMax = 200*time.Microsecond, 2*time.Millisecond
	t.Cleanup(func() { RetryBase, RetryMax = base, max })
}

// The acceptance test for the reliability sublayer: a faulty transport
// with a 5% drop rate (plus duplicates) must deliver every eager message
// exactly once, in per-channel FIFO order, with a fixed seed making the
// fault pattern reproducible.
func TestFaultyTransportDeliversExactlyOnce(t *testing.T) {
	tightRetries(t)
	tr, err := transport.New("faulty:seed=12345,drop=0.05,dup=0.02", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	defer c.Node(0).Shutdown()
	defer c.Node(1).Shutdown()

	const msgs = 600
	var mu sync.Mutex
	counts := make(map[int]int, msgs)
	order := make([]int, 0, msgs)
	c.Node(1).Context(0).RegisterDispatch(1, func(src int, data any, bytes int) {
		mu.Lock()
		counts[data.(int)]++
		order = append(order, data.(int))
		mu.Unlock()
	})

	for i := 0; i < msgs; i++ {
		if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, i, 8); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		c.Node(1).Context(0).Advance() // deliver + ack
		c.Node(0).Context(0).Advance() // consume acks
		tr.Advance()
		mu.Lock()
		n := len(counts)
		mu.Unlock()
		if n == msgs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d distinct messages", n, msgs)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Let trailing retransmissions and duplicates land, then verify
	// exactly-once and FIFO order.
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
			t.Fatalf("position %d got message %d: channel FIFO order broken", i, v)
		}
	}

	ts := tr.Stats()
	if ts.Dropped == 0 {
		t.Fatalf("5%% drop rate over %d+ packets dropped nothing: %+v", msgs, ts)
	}
	rs := c.Node(0).ReliabilityStats()
	if rs.Retries == 0 {
		t.Fatalf("drops occurred but the sender never retransmitted: %+v", rs)
	}
	if rr := c.Node(1).ReliabilityStats(); rr.Redelivered == 0 {
		t.Fatalf("retransmissions+dups occurred but the receiver deduped nothing: %+v", rr)
	}
}

// A busy channel keeps one retransmission timer for its whole life — no
// send or ack creates, stops or replaces it, and its fires re-arm it — and
// a loss-free ping-pong never retransmits.
func TestOneRetransmitTimerPerChannel(t *testing.T) {
	// A hop is microseconds; 10 ms keeps a multi-millisecond host stall
	// (the race detector's, a shared CPU's) from posing as a loss.
	base := RetryBase
	RetryBase = 10 * time.Millisecond
	t.Cleanup(func() { RetryBase = base })
	tr, err := transport.New("faulty:seed=1,unreliable=1", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	defer c.Node(0).Shutdown()
	defer c.Node(1).Shutdown()
	got := 0
	c.Node(1).Context(0).RegisterDispatch(1, func(int, any, int) { got++ })

	// At least 1000 cycles, and on until the timer has fired and re-armed
	// mid-stream (gen 1 is the first arm, 2 its fire, 3 the re-arm). Each
	// ack is consumed a cycle late, so every fire finds a packet in flight
	// and must count the advanced base as progress, not loss.
	rel := c.Node(0).rel
	var timer, first *time.Timer
	var gen uint64
	cycles := 0
	deadline := time.Now().Add(10 * time.Second)
	for ; cycles < 1000 || gen < 3; cycles++ {
		if time.Now().After(deadline) {
			t.Fatalf("timer never re-armed in %d cycles", cycles)
		}
		runtime.Gosched() // on a single P the timer runs only at a yield
		if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, nil, 8); err != nil {
			t.Fatal(err)
		}
		c.Node(0).Context(0).Advance() // consume the previous cycle's ack
		c.Node(1).Context(0).Advance() // deliver + ack
		rel.mu.Lock()
		timer, gen = rel.send[1].timer, rel.send[1].gen
		rel.mu.Unlock()
		if first == nil {
			first = timer
		}
		if timer == nil || timer != first {
			t.Fatalf("cycle %d: channel timer %p, want the first send's %p", cycles, timer, first)
		}
	}
	if got != cycles {
		t.Fatalf("delivered %d/%d", got, cycles)
	}
	if rs := c.Node(0).ReliabilityStats(); rs.Retries != 0 {
		t.Fatalf("loss-free ping-pong retransmitted over %d cycles: %+v", cycles, rs)
	}
}

// A lost packet is retransmitted within two RetryBase of leaving even
// while later packets on its channel keep arriving and drawing the stale
// cumulative ack: an ack that does not advance the window is not progress.
func TestStaleAckDoesNotPostponeRetransmit(t *testing.T) {
	base := RetryBase
	RetryBase = 20 * time.Millisecond
	t.Cleanup(func() { RetryBase = base })
	tr, err := transport.New("faulty:seed=1,unreliable=1", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	defer c.Node(0).Shutdown()
	defer c.Node(1).Shutdown()
	c.Node(1).Context(0).RegisterDispatch(1, func(int, any, int) {})
	send := func() {
		t.Helper()
		if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, nil, 8); err != nil {
			t.Fatal(err)
		}
	}

	send()
	sent := time.Now()
	if _, ok := c.Node(1).ep.Poll(0); !ok { // lose sequence 1
		t.Fatal("first packet not pollable as soon as it was sent")
	}
	for c.Node(0).ReliabilityStats().Retries == 0 {
		if e := time.Since(sent); e > 2*RetryBase {
			t.Fatalf("lost packet not retransmitted %v after it left (RetryBase %v)", e, RetryBase)
		}
		send()                         // a later packet ...
		c.Node(1).Context(0).Advance() // ... buffered out of order, answered with cum=0 ...
		c.Node(0).Context(0).Advance() // ... which lands and advances nothing
		time.Sleep(RetryBase / 10)
	}
	if rs := c.Node(0).ReliabilityStats(); rs.AcksReceived == 0 {
		t.Fatalf("no stale ack landed before the retransmission: %+v", rs)
	}
}

// A reliable transport must not arm the sublayer at all: no sequence
// wrappers, no acks, no timers.
func TestReliableTransportSkipsSublayer(t *testing.T) {
	c := newTestClient(2, 1)
	got := 0
	c.Node(1).Context(0).RegisterDispatch(1, func(int, any, int) { got++ })
	if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, nil, 8); err != nil {
		t.Fatal(err)
	}
	c.Node(1).Context(0).Advance()
	if got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	if rs := c.Node(0).ReliabilityStats(); rs != (ReliabilityStats{}) {
		t.Fatalf("reliable transport accrued reliability stats: %+v", rs)
	}
}

// Shutdown must stop retransmission timers so no retry fires into a
// torn-down machine.
func TestNodeShutdownStopsRetries(t *testing.T) {
	tightRetries(t)
	tr, err := transport.New("faulty:seed=9,drop=1", 2, 1) // every packet lost
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, nil, 8); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // let a few retries fire
	c.Node(0).Shutdown()
	r1 := c.Node(0).ReliabilityStats().Retries
	time.Sleep(5 * time.Millisecond)
	r2 := c.Node(0).ReliabilityStats().Retries
	if r2 != r1 {
		t.Fatalf("retries continued after Shutdown: %d -> %d", r1, r2)
	}
}

// The sender's retransmission window, driven by hand: sends go in through
// the public path, acks and retry rounds are applied directly to node 0's
// reliator (node 1 is never advanced, so it acknowledges nothing, and the
// retry timers are parked an hour out), and the result is read off the
// packets landing in node 1's reception FIFO. Only behaviour is asserted,
// never the window's representation.
func TestSendWindowAcksAndRetransmitOrder(t *testing.T) {
	base, max := RetryBase, RetryMax
	RetryBase, RetryMax = time.Hour, time.Hour
	t.Cleanup(func() { RetryBase, RetryMax = base, max })

	cases := []struct {
		name  string
		sends int      // packets sent first, sequence 1..sends
		drop  bool     // dropPeer before the acks
		acks  []uint64 // cumulative acks, applied in order
		retry []uint64 // what a retry round then re-injects, in order
	}{
		{name: "prefix ack trims the slots it covers", sends: 6, acks: []uint64{3}, retry: []uint64{4, 5, 6}},
		{name: "acks advance one slot at a time", sends: 4, acks: []uint64{1, 2, 3}, retry: []uint64{4}},
		{name: "duplicate and stale acks release nothing", sends: 6, acks: []uint64{3, 3, 1, 0}, retry: []uint64{4, 5, 6}},
		{name: "an ack for the whole window drains it", sends: 3, acks: []uint64{3}},
		{name: "an ack beyond nextSeq releases the window and no more", sends: 3, acks: []uint64{1 << 40, 1 << 40}},
		{name: "a straggler ack after dropPeer is a no-op", sends: 5, drop: true, acks: []uint64{2, 5, 1 << 40}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := transport.New("faulty:seed=1,unreliable=1", 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			c := NewClient(tr, 1)
			defer c.Node(0).Shutdown()
			rel := c.Node(0).rel

			send := func() {
				t.Helper()
				if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, nil, 8); err != nil {
					t.Fatal(err)
				}
			}
			// arrived drains node 1's reception FIFO: the sequence numbers
			// injected since the last call, in arrival order.
			arrived := func() []uint64 {
				tr.Advance() // every inject so far is due: deliver it now
				var seqs []uint64
				for {
					p, ok := c.Node(1).ep.Poll(0)
					if !ok {
						return seqs
					}
					seqs = append(seqs, p.Payload.(relPacket).seq)
				}
			}

			for range tc.sends {
				send()
			}
			if tc.drop {
				rel.dropPeer(1)
			}
			for _, cum := range tc.acks {
				rel.onAck(1, cum)
			}

			// The channel keeps working whatever the acks were: the next
			// send takes the next sequence number, a retry round re-injects
			// the survivors and it, oldest first, and acking it drains the
			// window.
			next := uint64(tc.sends + 1)
			send()
			arrived()
			retries := c.Node(0).ReliabilityStats().Retries
			rel.retry(1)
			want := append(slices.Clone(tc.retry), next)
			if got := arrived(); !slices.Equal(got, want) {
				t.Fatalf("retry re-injected %v, want %v", got, want)
			}
			if got := c.Node(0).ReliabilityStats().Retries - retries; got != int64(len(want)) {
				t.Fatalf("Retries moved by %d, want %d", got, len(want))
			}
			rel.onAck(1, next)
			retries = c.Node(0).ReliabilityStats().Retries
			rel.retry(1)
			if got := c.Node(0).ReliabilityStats().Retries; got != retries || len(arrived()) != 0 {
				t.Fatalf("retry on a drained window re-injected packets (Retries %d -> %d)", retries, got)
			}
		})
	}
}

// The out-of-order flood regression test: a lossy, delaying transport
// floods the receiver with gapped sequences while the reorder buffer is
// capped at 2 entries. Arrivals past the cap are refused and repaired by
// retransmission; the buffer never exceeds its cap and every message
// still arrives exactly once, in order.
func TestReorderBufferCapBoundsFlood(t *testing.T) {
	tightRetries(t)
	old := DefaultReorderCap
	DefaultReorderCap = 2
	t.Cleanup(func() { DefaultReorderCap = old })

	tr, err := transport.New("faulty:seed=99,drop=0.2,dup=0.05,delayrate=0.3,delaymax=1ms", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	defer c.Node(0).Shutdown()
	defer c.Node(1).Shutdown()

	const msgs = 300
	var mu sync.Mutex
	counts := make(map[int]int, msgs)
	order := make([]int, 0, msgs)
	c.Node(1).Context(0).RegisterDispatch(1, func(src int, data any, bytes int) {
		mu.Lock()
		counts[data.(int)]++
		order = append(order, data.(int))
		mu.Unlock()
	})
	for i := 0; i < msgs; i++ {
		if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, i, 8); err != nil {
			t.Fatal(err)
		}
	}
	peakBuffered := 0
	deadline := time.Now().Add(30 * time.Second)
	for {
		c.Node(1).Context(0).Advance()
		c.Node(0).Context(0).Advance()
		tr.Advance()
		if b := c.Node(1).ReorderBuffered(); b > peakBuffered {
			peakBuffered = b
		}
		mu.Lock()
		n := len(counts)
		mu.Unlock()
		if n == msgs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d under the capped reorder buffer", n, msgs)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if peakBuffered > 2 {
		t.Fatalf("reorder buffer peaked at %d entries, cap is 2", peakBuffered)
	}
	st := c.Node(1).ReliabilityStats()
	if st.Parked == 0 {
		t.Fatal("flood never hit the reorder cap — test is not exercising refusal")
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < msgs; i++ {
		if counts[i] != 1 {
			t.Fatalf("message %d dispatched %d times, want exactly once", i, counts[i])
		}
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: FIFO order violated", i, v)
		}
	}
}

// The reorder cap is max(DefaultReorderCap, window): it admits a full
// credit window of the layer above, and no window lowers it.
func TestReorderCapAdmitsWindow(t *testing.T) {
	tr, err := transport.New("inproc", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, c := range []struct{ window, want int }{
		{0, DefaultReorderCap}, {16, DefaultReorderCap}, {1024, 1024},
	} {
		if got := NewClientWindow(tr, 1, c.window).ReorderCap(); got != c.want {
			t.Errorf("window %d: ReorderCap = %d, want %d", c.window, got, c.want)
		}
	}
}
