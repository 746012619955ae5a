package pami

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/transport"
	"blueq/internal/wakeup"
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
	// mid-stream (gen 1 is the first arm, 2 its fire, 3 the re-arm). Node 1
	// polls new data on every Advance, so it acks once per ackEvery
	// deliveries and every fire finds packets in flight: it must count the
	// advanced base as progress, not loss.
	sc := &c.Node(0).rel.peer(1).send[0]
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
		sc.mu.Lock()
		timer, gen = sc.timer, sc.gen
		sc.mu.Unlock()
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
		c.Node(1).Context(0).Advance() // ... buffered out of order ...
		c.Node(1).Context(0).Advance() // ... answered with cum=0 once an Advance polls nothing new ...
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
			sc := &rel.peer(1).send[0]

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
				rel.onAck(1, 0, cum)
			}

			// The channel keeps working whatever the acks were: the next
			// send takes the next sequence number, a retry round re-injects
			// the survivors and it, oldest first, and acking it drains the
			// window.
			next := uint64(tc.sends + 1)
			send()
			arrived()
			retries := c.Node(0).ReliabilityStats().Retries
			rel.retry(sc)
			want := append(slices.Clone(tc.retry), next)
			if got := arrived(); !slices.Equal(got, want) {
				t.Fatalf("retry re-injected %v, want %v", got, want)
			}
			if got := c.Node(0).ReliabilityStats().Retries - retries; got != int64(len(want)) {
				t.Fatalf("Retries moved by %d, want %d", got, len(want))
			}
			rel.onAck(1, 0, next)
			retries = c.Node(0).ReliabilityStats().Retries
			rel.retry(sc)
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

// The armed hop is one packet: in a ping-pong whose handler replies from
// dispatch, every ack rides on the reverse data, so each hop injects
// exactly one packet and no standalone ack leaves in steady state. The
// last pong has no ping to carry its ack, which goes standalone at the
// pinger's first Advance that polls nothing new.
func TestPingPongOnePacketPerHop(t *testing.T) {
	base := RetryBase
	RetryBase = time.Hour // a host stall must not pose as a loss
	t.Cleanup(func() { RetryBase = base })
	tr, err := transport.New("faulty:seed=1,unreliable=1", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	defer c.Node(0).Shutdown()
	defer c.Node(1).Shutdown()
	ping, pong := c.Node(0).Context(0), c.Node(1).Context(0)
	pong.RegisterDispatch(1, func(src int, data any, bytes int) {
		if err := pong.SendImmediate(src, 0, 2, data, bytes); err != nil {
			t.Error(err)
		}
	})
	returned := 0
	ping.RegisterDispatch(2, func(int, any, int) { returned++ })

	const rounds = 500
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < rounds; i++ {
		if err := ping.SendImmediate(1, 0, 1, i, 8); err != nil {
			t.Fatal(err)
		}
		for returned <= i {
			if time.Now().After(deadline) {
				t.Fatalf("round %d never returned", i)
			}
			pong.Advance()
			ping.Advance()
		}
	}
	pong.Advance() // quiet: its ack went out on the last pong
	if got := tr.Stats().Injected; got != 2*rounds {
		t.Fatalf("%d hops injected %d packets, want one each", 2*rounds, got)
	}
	for r := 0; r < 2; r++ {
		if rs := c.Node(r).ReliabilityStats(); rs.AcksSent != 0 || rs.Retries != 0 {
			t.Fatalf("node %d sent standalone acks or retried in steady state: %+v", r, rs)
		}
	}
	ping.Advance() // quiet: the last pong's ack leaves on its own
	pong.Advance()
	if rs := c.Node(0).ReliabilityStats(); rs.AcksSent != 1 {
		t.Fatalf("pinger sent %d standalone acks for the last pong, want 1", rs.AcksSent)
	}
	for r, peer := range []int{1, 0} {
		sc := &c.Node(r).rel.peer(peer).send[0]
		sc.mu.Lock()
		n := len(sc.window)
		sc.mu.Unlock()
		if n != 0 {
			t.Fatalf("node %d's window holds %d packets after the run, want 0", r, n)
		}
	}
}

// With no reverse traffic the ack goes standalone: a one-way burst shorter
// than ackEvery is acknowledged once, at the receiver's first Advance that
// polls nothing new, and a longer stream every ackEvery deliveries even
// while each Advance polls data. Nothing is retransmitted.
func TestOneWayFlowAcksAtQuietAdvance(t *testing.T) {
	base := RetryBase
	RetryBase = time.Hour
	t.Cleanup(func() { RetryBase = base })
	tr, err := transport.New("faulty:seed=1,unreliable=1", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	defer c.Node(0).Shutdown()
	defer c.Node(1).Shutdown()
	src, dst := c.Node(0).Context(0), c.Node(1).Context(0)
	got := 0
	dst.RegisterDispatch(1, func(int, any, int) { got++ })
	sc := &c.Node(0).rel.peer(1).send[0]
	window := func() int {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return len(sc.window)
	}
	burst := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := src.SendImmediate(1, 0, 1, i, 8); err != nil {
				t.Fatal(err)
			}
		}
	}

	burst(ackEvery - 1)
	dst.Advance()
	if acks := c.Node(1).ReliabilityStats().AcksSent; got != ackEvery-1 || acks != 0 {
		t.Fatalf("after the polling Advance: delivered %d, standalone acks %d; want %d, 0", got, acks, ackEvery-1)
	}
	dst.Advance() // polls nothing: the ack leaves
	src.Advance()
	if acks := c.Node(1).ReliabilityStats().AcksSent; acks != 1 || window() != 0 {
		t.Fatalf("after the quiet Advance: %d standalone acks, window %d; want 1, 0", acks, window())
	}

	burst(3 * ackEvery)
	dst.Advance() // one Advance polls the whole stream
	if acks := c.Node(1).ReliabilityStats().AcksSent; acks != 4 {
		t.Fatalf("a %d-packet stream drew %d acks in its polling Advance, want 3", 3*ackEvery, acks-1)
	}
	src.Advance()
	dst.Advance() // quiet, and nothing left to ack
	if rs := c.Node(1).ReliabilityStats(); rs.AcksSent != 4 || window() != 0 {
		t.Fatalf("stream not drained by its acks: %+v, window %d", rs, window())
	}
	if rs := c.Node(0).ReliabilityStats(); rs.Retries != 0 || rs.AcksReceived != 4 {
		t.Fatalf("sender: %+v, want 0 retries and 4 acks received", rs)
	}
}

// An Advance that leaves an ack owed opens its node's Arrivals gate. A
// sender parked on credits watches its destination's gate, so when the
// destination's own thread polls the data and goes back to work, the
// sender's progress still runs the quiet Advance that sends the ack.
func TestOwedAckOpensArrivals(t *testing.T) {
	base := RetryBase
	RetryBase = time.Hour // no retransmission lands on the watched node
	t.Cleanup(func() { RetryBase = base })
	tr, err := transport.New("faulty:seed=1,unreliable=1", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	defer c.Node(0).Shutdown()
	defer c.Node(1).Shutdown()
	src, dst := c.Node(0).Context(0), c.Node(1).Context(0)
	dst.RegisterDispatch(1, func(int, any, int) {})
	if err := src.SendImmediate(1, 0, 1, 0, 8); err != nil { // lands before anyone watches
		t.Fatal(err)
	}

	const maxBlock = 5 * time.Second
	var tries atomic.Int64
	start, woke := time.Now(), make(chan time.Duration, 1)
	go func() {
		// Three tries precede the first wait; the first after a wake succeeds.
		wakeup.Park(func() bool { return tries.Add(1) > 3 }, nil, maxBlock, c.Node(1).Arrivals())
		woke <- time.Since(start)
	}()
	for !c.Node(1).Arrivals().Waiting() {
		time.Sleep(100 * time.Microsecond)
	}
	dst.Advance() // polls the packet; its ack stays owed
	if e := <-woke; e >= maxBlock/2 {
		t.Fatalf("waiter on the destination's gate woke after %v: the owed ack did not open it", e)
	}
	if acks := c.Node(1).ReliabilityStats().AcksSent; acks != 0 {
		t.Fatalf("%d standalone acks after the polling Advance, want 0", acks)
	}
	dst.Advance() // polls nothing: the ack leaves
	if acks := c.Node(1).ReliabilityStats().AcksSent; acks != 1 {
		t.Fatalf("%d standalone acks after the quiet Advance, want 1", acks)
	}
}

// Channels are per (peer, FIFO): with two contexts per node, each polling
// its FIFO on its own goroutine, a gap on FIFO 0 holds back FIFO 0 alone
// while FIFO 1 streams on, and the retransmission that closes it releases
// FIFO 0's buffered run in its send order.
func TestTwoFIFOsKeepOrderAcrossGap(t *testing.T) {
	base := RetryBase
	RetryBase = time.Hour // the gap closes only when the test kicks it
	t.Cleanup(func() { RetryBase = base })
	tr, err := transport.New("faulty:seed=1,unreliable=1", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 2)
	defer c.Node(0).Shutdown()
	defer c.Node(1).Shutdown()

	const msgs = 200
	var mu sync.Mutex
	var got [2][]int
	delivered := func(f int) int {
		mu.Lock()
		defer mu.Unlock()
		return len(got[f])
	}
	for f := 0; f < 2; f++ {
		c.Node(1).Context(f).RegisterDispatch(1, func(_ int, data any, _ int) {
			mu.Lock()
			got[f] = append(got[f], data.(int))
			mu.Unlock()
		})
	}
	send := func(fifo, i int) {
		t.Helper()
		if err := c.Node(0).Context(i%2).SendImmediate(1, fifo, 1, i, 8); err != nil {
			t.Fatal(err)
		}
	}
	send(0, 0)
	if _, ok := c.Node(1).ep.Poll(0); !ok { // lose FIFO 0's sequence 1
		t.Fatal("first packet not pollable as soon as it was sent")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for n := 0; n < 2; n++ {
		for f := 0; f < 2; f++ {
			wg.Add(1)
			go func(ctx *Context) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if ctx.Advance() == 0 {
						runtime.Gosched()
					}
				}
			}(c.Node(n).Context(f))
		}
	}
	defer func() { close(stop); wg.Wait() }()

	for i := 0; i < msgs; i++ {
		if i > 0 {
			send(0, i)
		}
		send(1, i)
	}
	wait := func(what string, done func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !done() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: FIFO 0 delivered %d, FIFO 1 %d, %d buffered", what, delivered(0), delivered(1), c.Node(1).ReorderBuffered())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	wait("FIFO 1 streams past FIFO 0's gap", func() bool {
		return delivered(1) == msgs && c.Node(1).ReorderBuffered() == msgs-1
	})
	if delivered(0) != 0 {
		t.Fatalf("FIFO 0 delivered %d packets across its gap", delivered(0))
	}
	c.Node(0).KickRetransmit(1)
	wait("the kicked retransmission closes the gap", func() bool { return delivered(0) == msgs })
	mu.Lock()
	defer mu.Unlock()
	for f := 0; f < 2; f++ {
		for i, v := range got[f] {
			if v != i {
				t.Fatalf("FIFO %d position %d got message %d: send order broken", f, i, v)
			}
		}
	}
	if b := c.Node(1).ReorderBuffered(); b != 0 {
		t.Fatalf("%d packets still buffered after the gap closed", b)
	}
}

// A retry round — a timer fire or a kick — re-injects at most retryBudget
// packets, however large the window: with microsecond timers over a black
// hole, ten rounds re-inject no more than ten budgets.
// Over a lossy wire the same timers still drain a 600-packet window
// exactly once, in order.
func TestRetryRoundBudget(t *testing.T) {
	base, max := RetryBase, RetryMax
	RetryBase, RetryMax = 50*time.Microsecond, 200*time.Microsecond
	t.Cleanup(func() { RetryBase, RetryMax = base, max })
	const msgs = 600

	t.Run("black hole", func(t *testing.T) {
		tr, err := transport.New("faulty:seed=4,drop=1", 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		c := NewClient(tr, 1)
		defer c.Node(0).Shutdown()
		for i := 0; i < msgs; i++ {
			if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, i, 8); err != nil {
				t.Fatal(err)
			}
		}
		// A round counts its retries and its streak step under the channel
		// lock, so a snapshot taken under it sees whole rounds only.
		sc := &c.Node(0).rel.peer(1).send[0]
		deadline := time.Now().Add(10 * time.Second)
		for rounds := 0; rounds < 10; {
			sc.mu.Lock()
			rounds = sc.streak
			retries := c.Node(0).ReliabilityStats().Retries
			sc.mu.Unlock()
			if retries > int64(rounds*retryBudget) {
				t.Fatalf("%d retries in %d rounds: more than %d a round", retries, rounds, retryBudget)
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d retry rounds fired", rounds)
			}
			time.Sleep(50 * time.Microsecond)
		}
	})

	t.Run("lossy window drains once", func(t *testing.T) {
		tr, err := transport.New("faulty:seed=5,drop=0.05,dup=0.02", 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		c := NewClient(tr, 1)
		defer c.Node(0).Shutdown()
		defer c.Node(1).Shutdown()
		var order []int
		c.Node(1).Context(0).RegisterDispatch(1, func(_ int, data any, _ int) { order = append(order, data.(int)) })
		for i := 0; i < msgs; i++ {
			if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, i, 8); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(30 * time.Second)
		for len(order) < msgs {
			if time.Now().After(deadline) {
				t.Fatalf("delivered %d/%d", len(order), msgs)
			}
			c.Node(1).Context(0).Advance()
			c.Node(0).Context(0).Advance()
			tr.Advance()
			runtime.Gosched()
		}
		time.Sleep(5 * time.Millisecond) // trailing retransmissions and dups land
		c.Node(1).Context(0).Advance()
		for i, v := range order {
			if v != i {
				t.Fatalf("position %d got message %d (of %d delivered): not exactly once in order", i, v, len(order))
			}
		}
		if len(order) != msgs {
			t.Fatalf("delivered %d, want exactly %d", len(order), msgs)
		}
		if rs := c.Node(0).ReliabilityStats(); rs.Retries == 0 {
			t.Fatalf("a lossy wire drew no retransmissions: %+v", rs)
		}
	})
}

// After a retry round, acks pace the rest of the stalled window: an ack
// covering the round re-injects twice as many of the suspects, one short
// of it (or a stale one) re-offers the hole the receiver is stuck at, and
// the recovery ends at the window's end as of the retry round — later
// sends are never re-injected by it. Driven by hand, as
// TestSendWindowAcksAndRetransmitOrder is.
func TestRecoveryPacedByAcks(t *testing.T) {
	base, max := RetryBase, RetryMax
	RetryBase, RetryMax = time.Hour, time.Hour
	t.Cleanup(func() { RetryBase, RetryMax = base, max })
	tr, err := transport.New("faulty:seed=1,unreliable=1", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	defer c.Node(0).Shutdown()
	rel := c.Node(0).rel
	sc := &rel.peer(1).send[0]
	send := func() {
		t.Helper()
		if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, nil, 8); err != nil {
			t.Fatal(err)
		}
	}
	arrived := func() []uint64 { // node 1 is never advanced: read its FIFO
		tr.Advance()
		var seqs []uint64
		for {
			p, ok := c.Node(1).ep.Poll(0)
			if !ok {
				return seqs
			}
			seqs = append(seqs, p.Payload.(relPacket).seq)
		}
	}
	span := func(from, to uint64) []uint64 {
		var s []uint64
		for q := from; q <= to; q++ {
			s = append(s, q)
		}
		return s
	}

	const stalled = 40
	for range stalled {
		send()
	}
	arrived() // all lost
	steps := []struct {
		name    string
		ack     uint64 // 0: the retry round itself
		sendNew bool   // send one more packet first
		want    []uint64
	}{
		{"the retry round re-injects one budget", 0, false, span(1, retryBudget)},
		{"an ack covering it doubles the round", retryBudget, false, span(retryBudget+1, 3*retryBudget)},
		{"a partial ack re-offers the hole", 2*retryBudget + 4, false, span(2*retryBudget+5, 2*retryBudget+5)},
		{"so does a stale one", 2*retryBudget + 4, false, span(2*retryBudget+5, 2*retryBudget+5)},
		{"the last round ends at the window as of the retry", 3 * retryBudget, true, span(3*retryBudget+1, stalled)},
		{"the ack ending the recovery leaves the later send alone", stalled, false, nil},
	}
	for _, st := range steps {
		if st.sendNew {
			send()
			arrived()
		}
		if st.ack == 0 {
			rel.retry(sc)
		} else {
			rel.onAck(1, 0, st.ack)
		}
		if got := arrived(); !slices.Equal(got, st.want) {
			t.Fatalf("%s: re-injected %v, want %v", st.name, got, st.want)
		}
	}
}
