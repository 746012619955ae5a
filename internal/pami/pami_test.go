package pami

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/torus"
	"blueq/internal/transport"
)

// newTestClient builds a client over the inproc transport.
func newTestClient(nodes, ctxs int) *Client {
	tor := torus.MustNew(torus.ShapeForNodes(nodes))
	return NewClient(transport.NewInproc(tor, ctxs), ctxs)
}

func TestSendImmediateDispatch(t *testing.T) {
	c := newTestClient(2, 1)
	var gotSrc int
	var gotData string
	var gotBytes int
	c.Node(1).Context(0).RegisterDispatch(7, func(src int, data any, bytes int) {
		gotSrc, gotData, gotBytes = src, data.(string), bytes
	})
	if err := c.Node(0).Context(0).SendImmediate(1, 0, 7, "ping", 4); err != nil {
		t.Fatal(err)
	}
	if n := c.Node(1).Context(0).Advance(); n != 1 {
		t.Fatalf("Advance processed %d items, want 1", n)
	}
	if gotSrc != 0 || gotData != "ping" || gotBytes != 4 {
		t.Fatalf("dispatch got (%d,%q,%d)", gotSrc, gotData, gotBytes)
	}
}

func TestSendImmediateRejectsLarge(t *testing.T) {
	c := newTestClient(2, 1)
	err := c.Node(0).Context(0).SendImmediate(1, 0, 1, nil, ShortLimit+1)
	if err == nil {
		t.Fatal("oversized SendImmediate accepted")
	}
}

func TestSendLargeWithCompletion(t *testing.T) {
	c := newTestClient(2, 1)
	delivered := false
	c.Node(1).Context(0).RegisterDispatch(3, func(src int, data any, bytes int) {
		delivered = true
	})
	done := false
	if err := c.Node(0).Context(0).Send(1, 0, 3, make([]byte, 1<<16), 1<<16, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("local completion not invoked")
	}
	c.Node(1).Context(0).Advance()
	if !delivered {
		t.Fatal("message not dispatched")
	}
}

func TestSendBadDestination(t *testing.T) {
	c := newTestClient(2, 1)
	if err := c.Node(0).Context(0).SendImmediate(5, 0, 1, nil, 0); err == nil {
		t.Fatal("send to bad node accepted")
	}
	// Bad context id clamps to 0 rather than erroring, as PAMI maps
	// unknown contexts onto the default FIFO.
	if err := c.Node(0).Context(0).SendImmediate(1, 9, 1, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRgetCopiesRegion(t *testing.T) {
	c := newTestClient(2, 1)
	src := &MemoryRegion{Data: []byte("hello rendezvous world")}
	dst := make([]byte, 10)
	done := false
	err := c.Node(1).Context(0).Rget(dst, src, 6, 10, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	if string(dst) != "rendezvous" || !done {
		t.Fatalf("Rget got %q done=%v", dst, done)
	}
}

func TestRgetBounds(t *testing.T) {
	c := newTestClient(1, 1)
	reg := &MemoryRegion{Data: make([]byte, 8)}
	if err := c.Node(0).Context(0).Rget(make([]byte, 8), reg, 4, 8, nil); err == nil {
		t.Fatal("out-of-bounds Rget accepted")
	}
	if err := c.Node(0).Context(0).Rget(nil, nil, 0, 0, nil); err == nil {
		t.Fatal("nil-region Rget accepted")
	}
}

// The full rendezvous protocol for a large Charm++ message: header via
// SendImmediate carrying the memory region, receiver Rgets the payload,
// then acks so the sender can free.
func TestRendezvousProtocol(t *testing.T) {
	c := newTestClient(2, 1)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	region := &MemoryRegion{Data: payload}
	var received []byte
	acked := false

	const (
		dispHeader = 1
		dispAck    = 2
	)
	recvCtx := c.Node(1).Context(0)
	sendCtx := c.Node(0).Context(0)
	recvCtx.RegisterDispatch(dispHeader, func(src int, data any, bytes int) {
		reg := data.(*MemoryRegion)
		buf := make([]byte, len(reg.Data))
		err := recvCtx.Rget(buf, reg, 0, len(reg.Data), func() {
			received = buf
			if err := recvCtx.SendImmediate(src, 0, dispAck, nil, 0); err != nil {
				t.Errorf("ack failed: %v", err)
			}
		})
		if err != nil {
			t.Errorf("rget failed: %v", err)
		}
	})
	sendCtx.RegisterDispatch(dispAck, func(src int, data any, bytes int) { acked = true })

	if err := sendCtx.SendImmediate(1, 0, dispHeader, region, 16); err != nil {
		t.Fatal(err)
	}
	recvCtx.Advance()
	sendCtx.Advance()
	if !acked {
		t.Fatal("sender never received ack")
	}
	if len(received) != len(payload) || received[12345] != payload[12345] {
		t.Fatal("payload corrupted in rendezvous")
	}
}

func TestPostRunsOnAdvance(t *testing.T) {
	c := newTestClient(1, 1)
	ctx := c.Node(0).Context(0)
	ran := 0
	ctx.Post(func() { ran++ })
	ctx.Post(func() { ran++ })
	ctx.Advance()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

func TestAdvanceTryLockSkips(t *testing.T) {
	c := newTestClient(1, 1)
	ctx := c.Node(0).Context(0)
	ctx.lock.Lock()
	if n := ctx.Advance(); n != 0 {
		t.Fatalf("Advance on locked context processed %d", n)
	}
	ctx.lock.Unlock()
}

func TestCommThreadProcessesTraffic(t *testing.T) {
	c := newTestClient(2, 1)
	var count atomic.Int64
	c.Node(1).Context(0).RegisterDispatch(1, func(src int, data any, bytes int) {
		count.Add(1)
	})
	ct := StartCommThread(c.Node(1).Context(0))
	defer ct.Stop()
	const msgs = 1000
	for i := 0; i < msgs; i++ {
		if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, i, 8); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for count.Load() < msgs {
		if time.Now().After(deadline) {
			t.Fatalf("comm thread delivered %d/%d", count.Load(), msgs)
		}
		time.Sleep(time.Millisecond)
	}
}

// An idle comm thread must sleep (wakes bounded by traffic bursts), not
// spin: after traffic stops, its wake count stabilizes.
func TestCommThreadSleepsWhenIdle(t *testing.T) {
	c := newTestClient(2, 1)
	c.Node(1).Context(0).RegisterDispatch(1, func(int, any, int) {})
	ct := StartCommThread(c.Node(1).Context(0))
	defer ct.Stop()
	for i := 0; i < 10; i++ {
		if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	w1 := ct.Wakes()
	time.Sleep(100 * time.Millisecond)
	w2 := ct.Wakes()
	if w2 != w1 {
		t.Fatalf("idle comm thread kept waking: %d -> %d", w1, w2)
	}
}

func TestCommThreadExecutesPostedWork(t *testing.T) {
	c := newTestClient(1, 1)
	ctx := c.Node(0).Context(0)
	ct := StartCommThread(ctx)
	defer ct.Stop()
	var ran atomic.Bool
	ctx.Post(func() { ran.Store(true) })
	deadline := time.Now().Add(2 * time.Second)
	for !ran.Load() {
		if time.Now().After(deadline) {
			t.Fatal("posted work never ran")
		}
		time.Sleep(time.Millisecond)
	}
}

// Multiple worker threads sending concurrently through their own contexts
// to one destination comm thread: all messages arrive exactly once.
func TestManyContextsOneReceiver(t *testing.T) {
	const workers = 4
	const perW = 500
	c := newTestClient(2, workers)
	var mu sync.Mutex
	got := map[int]bool{}
	c.Node(1).Context(0).RegisterDispatch(1, func(src int, data any, bytes int) {
		mu.Lock()
		got[data.(int)] = true
		mu.Unlock()
	})
	ct := StartCommThread(c.Node(1).Context(0))
	defer ct.Stop()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := c.Node(0).Context(w)
			for i := 0; i < perW; i++ {
				if err := ctx.SendImmediate(1, 0, 1, w*perW+i, 8); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == workers*perW {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d", n, workers*perW)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStatsCounters(t *testing.T) {
	c := newTestClient(2, 1)
	ctx := c.Node(0).Context(0)
	c.Node(1).Context(0).RegisterDispatch(1, func(int, any, int) {})
	_ = ctx.SendImmediate(1, 0, 1, nil, 8)
	_ = ctx.Send(1, 0, 1, nil, 8192, nil)
	_ = ctx.Rget(make([]byte, 1), &MemoryRegion{Data: make([]byte, 1)}, 0, 1, nil)
	si, s, rg, _ := ctx.Stats()
	if si != 1 || s != 1 || rg != 1 {
		t.Fatalf("stats = (%d,%d,%d)", si, s, rg)
	}
}

func BenchmarkSendImmediateAdvance(b *testing.B) {
	c := newTestClient(2, 1)
	c.Node(1).Context(0).RegisterDispatch(1, func(int, any, int) {})
	src := c.Node(0).Context(0)
	dst := c.Node(1).Context(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.SendImmediate(1, 0, 1, nil, 32)
		dst.Advance()
	}
}
