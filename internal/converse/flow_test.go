package converse

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/flowctl"
	"blueq/internal/transport"
)

// The cross-layer overload property test: a producer PE floods a consumer
// that executes ten times slower than the production rate, over a
// lossless and a lossy transport, with every flow-control bound set
// deliberately small. Four properties must hold simultaneously:
//
//  1. no loss — every message executes despite 5% drops (reliable
//     traffic is parked, never shed);
//  2. no duplication — retransmissions and transport dups are dedup'd;
//  3. bounded memory — the resident backlog (scheduler queues + priority
//     queues) and the reorder buffer never exceed the configured caps
//     plus the credit window, no matter how far the consumer lags;
//  4. no credit leak — once everything has executed, every credit is home.
func TestFlowControlSlowConsumerBoundedExactlyOnce(t *testing.T) {
	for _, spec := range []string{"inproc", "faulty:seed=4242,drop=0.05,dup=0.02"} {
		t.Run(spec, func(t *testing.T) { slowConsumerFlood(t, spec) })
	}
}

func slowConsumerFlood(t *testing.T, spec string) {
	tightRetries(t)
	tr, err := transport.New(spec, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	const (
		msgs        = 800
		window      = 16
		overflowCap = 64
		ringSize    = 64
	)
	cfg := Config{
		Nodes:          2,
		WorkersPerNode: 1,
		Mode:           ModeSMP,
		Transport:      tr,
		RingSize:       ringSize,
		FlowControl: &flowctl.Config{
			Window:      window,
			OverflowCap: overflowCap,
			MaxBlock:    10 * time.Second,
		},
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The consumer runs ~10× slower than the uncontended send rate.
	m.PE(1).SetInvokeDelay(50 * time.Microsecond)

	var mu sync.Mutex
	counts := make(map[int]int, msgs)
	h := m.RegisterHandler(func(pe *PE, msg *Message) {
		mu.Lock()
		counts[msg.Payload.(int)]++
		n := len(counts)
		mu.Unlock()
		if n == msgs {
			pe.Machine().Shutdown()
		}
	})

	// Sample the resident backlog while the flood runs. The hard bound:
	// the consumer-side ring + overflow cap + priority-queue bound, plus
	// the credit window still in flight on the wire, plus the overflow
	// cap's per-producer softness. Without flow control this backlog
	// would reach ~msgs.
	const residencyBound = ringSize + overflowCap + schedPullBound + window + 8
	var peakResident, peakReorder int64
	stopSampling := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			if r := m.QueueResidency(); r > atomic.LoadInt64(&peakResident) {
				atomic.StoreInt64(&peakResident, r)
			}
			if b := int64(m.PAMIClient().Node(1).ReorderBuffered()); b > atomic.LoadInt64(&peakReorder) {
				atomic.StoreInt64(&peakReorder, b)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	done := make(chan struct{})
	go func() {
		m.Run(func(pe *PE) {
			if pe.Id() != 0 {
				return
			}
			for i := 0; i < msgs; i++ {
				if err := pe.Send(1, &Message{Handler: h, Bytes: 8, Payload: i}); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		mu.Lock()
		n := len(counts)
		mu.Unlock()
		t.Fatalf("stalled: delivered %d/%d distinct messages", n, msgs)
	}
	close(stopSampling)
	samplerWG.Wait()

	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < msgs; i++ {
		if counts[i] != 1 {
			t.Fatalf("message %d executed %d times, want exactly once", i, counts[i])
		}
	}
	if p := atomic.LoadInt64(&peakResident); p > residencyBound {
		t.Fatalf("resident backlog peaked at %d messages, bound is %d", p, residencyBound)
	}
	if p, rcap := atomic.LoadInt64(&peakReorder), m.PAMIClient().ReorderCap(); p > int64(rcap) {
		t.Fatalf("reorder buffer peaked at %d, cap is %d", p, rcap)
	}
	fc := m.FlowController()
	if fc.BlockedTotal() == 0 {
		t.Fatal("the flood never hit backpressure — bounds were not exercised")
	}
	if n := fc.Window(0, 1).InFlight(); n != 0 {
		t.Fatalf("InFlight = %d after every message executed, want 0", n)
	}
}

// A message over RendezvousThreshold holds its credit until it has
// executed, like an eager one: the header's dispatch is not the return
// point.
func TestRendezvousHoldsCreditUntilExecuted(t *testing.T) {
	cfg := Config{Nodes: 2, WorkersPerNode: 1, Mode: ModeSMP, FlowControl: &flowctl.Config{}}
	inHandler, h := int64(-1), 0
	m := runMachine(t, cfg, func(m *Machine) {
		h = m.RegisterHandler(func(pe *PE, msg *Message) {
			inHandler = pe.Machine().FlowController().Window(0, 1).InFlight()
			pe.Machine().Shutdown()
		})
	}, func(pe *PE) {
		if pe.Id() == 0 {
			if err := pe.Send(1, &Message{Handler: h, Bytes: RendezvousThreshold + 1}); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	if got := m.RendezvousStats().Started.Load(); got != 1 {
		t.Fatalf("rendezvous started %d times, want 1", got)
	}
	if inHandler != 1 {
		t.Fatalf("InFlight = %d inside the handler, want 1", inHandler)
	}
	if n := m.FlowController().Window(0, 1).InFlight(); n != 0 {
		t.Fatalf("InFlight = %d after the handler returned, want 0", n)
	}
}

// Only remote Converse messages hold credits. With the one credit of a
// node pair taken and nothing consuming, traffic sent straight through
// PAMI (the heartbeat's shape) does not park, and same-node sends never
// touch a window.
func TestUncreditedTrafficBypassesWindow(t *testing.T) {
	tr, err := transport.New("inproc", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	m, err := NewMachine(Config{Nodes: 2, WorkersPerNode: 2, Mode: ModeSMP, Transport: tr,
		FlowControl: &flowctl.Config{Window: 1, MaxBlock: 10 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	fc := m.FlowController()
	fc.Window(0, 1).Acquire(nil) // the window is exhausted; the machine never runs

	const control = 50
	var delivered atomic.Int64
	client := m.PAMIClient()
	client.Node(1).Context(0).RegisterDispatch(9, func(int, any, int) { delivered.Add(1) })
	start := time.Now()
	for i := 0; i < control; i++ {
		if err := client.Node(0).Context(0).SendImmediate(1, 0, 9, i, 8); err != nil {
			t.Fatal(err)
		}
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("%d PAMI sends took %v — they parked on credits", control, e)
	}
	client.Node(1).Context(0).Advance()
	if got := delivered.Load(); got != control {
		t.Fatalf("delivered %d/%d PAMI messages", got, control)
	}

	for _, dst := range []int{0, 1} { // self, then the other PE of node 0
		if err := m.PE(0).Send(dst, &Message{Bytes: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := fc.Window(0, 0).InFlight(), fc.Window(0, 1).InFlight(); a != 0 || b != 1 {
		t.Fatalf("InFlight (0,0)=%d (0,1)=%d after same-node sends, want 0 and 1", a, b)
	}
	if fc.BlockedTotal() != 0 {
		t.Fatalf("uncredited traffic parked %d times", fc.BlockedTotal())
	}
}

// Flow control enabled on an uncontended reliable machine must be
// invisible: all traffic flows, nothing parks, nothing sheds.
func TestFlowControlUncontendedInvisible(t *testing.T) {
	cfg := Config{
		Nodes:          2,
		WorkersPerNode: 2,
		Mode:           ModeSMP,
		FlowControl:    &flowctl.Config{},
	}
	const msgs = 200
	var got atomic.Int64
	var handler atomic.Int64
	m := runMachine(t, cfg, func(m *Machine) {
		h := m.RegisterHandler(func(pe *PE, msg *Message) {
			if got.Add(1) == msgs {
				pe.Machine().Shutdown()
			}
		})
		handler.Store(int64(h))
	}, func(pe *PE) {
		if pe.Id() != 0 {
			return
		}
		for i := 0; i < msgs; i++ {
			if err := pe.Send(i%4, &Message{Handler: int(handler.Load()), Bytes: 32}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	})
	if got.Load() != msgs {
		t.Fatalf("delivered %d/%d", got.Load(), msgs)
	}
	fc := m.FlowController()
	if fc.BlockedTotal() != 0 || fc.ShedCount() != 0 {
		t.Fatalf("uncontended run parked %d times, shed %d messages — flow control is not invisible",
			fc.BlockedTotal(), fc.ShedCount())
	}
	if fc.State() != flowctl.StateFull {
		t.Fatalf("State = %d after quiet run, want full speed", fc.State())
	}
}

// Best-effort messages are shed (counted, dropped) under hard memory
// pressure, while reliable messages keep flowing.
func TestBestEffortShedUnderHardPressure(t *testing.T) {
	cfg := Config{
		Nodes:          2,
		WorkersPerNode: 1,
		Mode:           ModeSMP,
		FlowControl:    &flowctl.Config{},
	}
	const reliable = 50
	var got atomic.Int64
	var shedArrived atomic.Int64
	var handler, shedHandler atomic.Int64
	m := runMachine(t, cfg, func(m *Machine) {
		handler.Store(int64(m.RegisterHandler(func(pe *PE, msg *Message) {
			if got.Add(1) == reliable {
				pe.Machine().Shutdown()
			}
		})))
		shedHandler.Store(int64(m.RegisterHandler(func(pe *PE, msg *Message) {
			shedArrived.Add(1)
		})))
		// Force hard pressure as if the mempool watermark fired.
		m.FlowController().SetPressure(0, 2)
	}, func(pe *PE) {
		if pe.Id() != 0 {
			return
		}
		for i := 0; i < 20; i++ {
			if err := pe.Send(1, &Message{Handler: int(shedHandler.Load()), Bytes: 8, BestEffort: true}); err != nil {
				t.Errorf("best-effort send: %v", err)
			}
		}
		for i := 0; i < reliable; i++ {
			if err := pe.Send(1, &Message{Handler: int(handler.Load()), Bytes: 8}); err != nil {
				t.Errorf("reliable send: %v", err)
			}
		}
	})
	if got.Load() != reliable {
		t.Fatalf("delivered %d/%d reliable messages under shedding", got.Load(), reliable)
	}
	if shedArrived.Load() != 0 {
		t.Fatalf("%d best-effort messages arrived while shedding", shedArrived.Load())
	}
	if m.FlowController().ShedCount() != 20 {
		t.Fatalf("ShedCount = %d, want 20", m.FlowController().ShedCount())
	}
}
