package converse

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/flowctl"
	"blueq/internal/transport"
)

// Flood with aggregation armed: every message arrives exactly once, and
// the wire carried far fewer injects than messages — the amortization the
// layer exists for.
func TestAggregationFloodExactlyOnce(t *testing.T) {
	const perSender = 2000
	cfg := Config{
		Nodes: 2, WorkersPerNode: 2, Mode: ModeSMP,
		Aggregation: &aggregate.Config{},
	}
	var seen sync.Map
	var dups, count atomic.Int64
	var h, hGo int
	total := int64(2 * perSender) // both PEs of node 0 flood node 1
	m := runMachine(t, cfg,
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				id := msg.Payload.([2]int)
				if _, dup := seen.LoadOrStore(id, true); dup {
					dups.Add(1)
				}
				if count.Add(1) == total {
					pe.Machine().Shutdown()
				}
			})
			hGo = m.RegisterHandler(func(pe *PE, msg *Message) {
				dst := 2 + pe.Id()%2 // a PE on node 1
				for i := 0; i < perSender; i++ {
					if err := pe.Send(dst, &Message{Handler: h, Bytes: 16, Payload: [2]int{pe.Id(), i}}); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			})
		},
		func(pe *PE) {
			if pe.Node().Rank() == 0 {
				pe.enqueue(&Message{Handler: hGo, destLocal: pe.LocalRank()})
			}
		})
	if d := dups.Load(); d != 0 {
		t.Fatalf("%d duplicate deliveries", d)
	}
	if c := count.Load(); c != total {
		t.Fatalf("delivered %d, want %d", c, total)
	}
	st := m.Node(0).Aggregator().Stats()
	if st.Messages < total/2 {
		t.Fatalf("only %d of %d messages travelled aggregated", st.Messages, total)
	}
	if st.Batches == 0 || st.Batches*2 > st.Messages {
		t.Fatalf("no amortization: %d batches for %d messages", st.Batches, st.Messages)
	}
}

// Ping-pong with aggregation armed in every mode: the idle flush must keep
// a lone request/response exchange flowing — each hop's sender goes idle
// immediately, flushing the 1-message batch without waiting out MaxDelay.
func TestAggregationPingPongAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeNonSMP, ModeSMP, ModeSMPComm} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{
				Nodes: 2, WorkersPerNode: 2, Mode: mode,
				// MaxDelay long enough that only the idle flush can carry
				// the exchange to completion in reasonable time.
				Aggregation: &aggregate.Config{MaxDelay: 50 * time.Millisecond},
			}
			const rounds = 60
			var count atomic.Int64
			var h int
			start := time.Now()
			m := runMachine(t, cfg,
				func(m *Machine) {
					h = m.RegisterHandler(func(pe *PE, msg *Message) {
						n := msg.Payload.(int)
						count.Add(1)
						if n >= rounds {
							pe.Machine().Shutdown()
							return
						}
						dst := (pe.Id() + pe.NumPEs()/2) % pe.NumPEs()
						if err := pe.Send(dst, &Message{Handler: h, Bytes: 32, Payload: n + 1}); err != nil {
							t.Errorf("send: %v", err)
							pe.Machine().Shutdown()
						}
					})
				},
				func(pe *PE) {
					if pe.Id() == 0 {
						pe.enqueue(&Message{Handler: h, Payload: 0})
					}
				})
			if count.Load() < rounds {
				t.Fatalf("only %d rounds completed", count.Load())
			}
			// 60 rounds × 50 ms timer would be 3 s; the idle flush should
			// finish orders of magnitude faster. Generous bound for CI.
			if el := time.Since(start); el > 2*time.Second {
				t.Fatalf("ping-pong took %v — idle flush not engaging", el)
			}
			st := m.Node(0).Aggregator().Stats()
			if st.Flushes[aggregate.FlushIdle] == 0 {
				t.Fatalf("no idle flushes recorded: %+v", st)
			}
		})
	}
}

// Aggregation and flow control together: a slow consumer flooded through
// batches still has its scheduler residency bounded by the credit window —
// per-inner-message credits at append keep the backpressure semantics of
// the unaggregated path.
func TestAggregationFlowControlResidency(t *testing.T) {
	fcc := flowctl.Config{MaxBlock: 50 * time.Millisecond}
	fcc.Normalize()
	const total = 4000
	cfg := Config{
		Nodes: 2, WorkersPerNode: 1, Mode: ModeSMP, RingSize: 256,
		Aggregation: &aggregate.Config{},
		FlowControl: &fcc,
	}
	// Residency bound: ring + overflow cap + scheduler pull bound + credit
	// window + slack (same formula as internal/scenario's residency bound).
	bound := int64(256 + fcc.OverflowCap + schedPullBound + fcc.Window + 8)
	var count atomic.Int64
	var maxRes atomic.Int64
	var h, hGo int
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h = m.RegisterHandler(func(pe *PE, msg *Message) {
		if count.Add(1) == total {
			pe.Machine().Shutdown()
		}
	})
	hGo = m.RegisterHandler(func(pe *PE, msg *Message) {
		for i := 0; i < total; i++ {
			if err := pe.Send(1, &Message{Handler: h, Bytes: 16, Payload: i}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	})
	stopSampler := make(chan struct{})
	go func() {
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				if r := m.QueueResidency(); r > maxRes.Load() {
					maxRes.Store(r)
				}
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		m.Run(func(pe *PE) {
			if pe.Id() == 1 {
				pe.SetInvokeDelay(5 * time.Microsecond) // deliberately slow consumer
			}
			if pe.Id() == 0 {
				pe.enqueue(&Message{Handler: hGo})
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("machine did not shut down")
	}
	close(stopSampler)
	if c := count.Load(); c != total {
		t.Fatalf("delivered %d, want %d", c, total)
	}
	if r := maxRes.Load(); r > bound {
		t.Fatalf("peak residency %d exceeds bound %d — credits not limiting aggregated traffic", r, bound)
	}
}

// Aggregated flood over the faulty transport: the reliability sublayer
// sequences and dedups whole batches, so drops and duplicates still yield
// exactly-once delivery of every inner message.
func TestAggregationFaultyTransportExactlyOnce(t *testing.T) {
	tightRetries(t)
	tr, err := transport.New("faulty:seed=41,drop=0.08,dup=0.04,delayrate=0.2,delaymax=200us", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const total = 1500
	cfg := Config{
		Nodes: 2, WorkersPerNode: 1, Mode: ModeSMP, Transport: tr,
		Aggregation: &aggregate.Config{},
	}
	var seen sync.Map
	var dups, count atomic.Int64
	var h, hGo int
	runMachine(t, cfg,
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				if _, dup := seen.LoadOrStore(msg.Payload.(int), true); dup {
					dups.Add(1)
				}
				if count.Add(1) == total {
					pe.Machine().Shutdown()
				}
			})
			hGo = m.RegisterHandler(func(pe *PE, msg *Message) {
				for i := 0; i < total; i++ {
					if err := pe.Send(1, &Message{Handler: h, Bytes: 16, Payload: i}); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			})
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				pe.enqueue(&Message{Handler: hGo})
			}
		})
	if d := dups.Load(); d != 0 {
		t.Fatalf("%d duplicate deliveries through batch dedup", d)
	}
	if c := count.Load(); c != total {
		t.Fatalf("delivered %d, want %d", c, total)
	}
}

// Messages above aggregate.DefaultMaxMsgBytes, self-sends, and NoAgg messages bypass the
// aggregator entirely.
func TestAggregationBypasses(t *testing.T) {
	cfg := Config{
		Nodes: 2, WorkersPerNode: 1, Mode: ModeSMP,
		Aggregation: &aggregate.Config{},
	}
	var count atomic.Int64
	var h, hGo int
	const want = 3
	m := runMachine(t, cfg,
		func(m *Machine) {
			h = m.RegisterHandler(func(pe *PE, msg *Message) {
				if count.Add(1) == want {
					pe.Machine().Shutdown()
				}
			})
			hGo = m.RegisterHandler(func(pe *PE, msg *Message) {
				// Oversize: direct path.
				if err := pe.Send(1, &Message{Handler: h, Bytes: aggregate.DefaultMaxMsgBytes + 1}); err != nil {
					t.Errorf("send: %v", err)
				}
				// NoAgg opt-out: direct path.
				if err := pe.Send(1, &Message{Handler: h, Bytes: 16, NoAgg: true}); err != nil {
					t.Errorf("send: %v", err)
				}
				// Self-send: local pointer exchange, no aggregation.
				if err := pe.Send(0, &Message{Handler: h, Bytes: 16}); err != nil {
					t.Errorf("send: %v", err)
				}
			})
		},
		func(pe *PE) {
			if pe.Id() == 0 {
				pe.enqueue(&Message{Handler: hGo})
			}
		})
	if c := count.Load(); c != want {
		t.Fatalf("delivered %d, want %d", c, want)
	}
	if st := m.Node(0).Aggregator().Stats(); st.Messages != 0 {
		t.Fatalf("%d messages aggregated, all should have bypassed", st.Messages)
	}
}

// Unpacking a batch onto a 2-worker node sorts it into the receiving
// context's per-worker buckets, which are reused from batch to batch: the
// unpack allocates nothing.
func TestAggBatchUnpackAllocFree(t *testing.T) {
	m, err := NewMachine(Config{Nodes: 2, WorkersPerNode: 2, Mode: ModeSMP})
	if err != nil {
		t.Fatal(err)
	}
	node := m.Node(1)
	buckets := make([][]*Message, len(node.pes))
	msgs := make([]*Message, 8)
	for i := range msgs {
		msgs[i] = &Message{destLocal: i % len(node.pes)}
	}
	b := &aggregate.Batch{Items: make([]any, 0, len(msgs))}
	unpack := func() {
		b.Items = b.Items[:0]
		for _, msg := range msgs {
			b.Items = append(b.Items, msg)
		}
		node.onAggBatch(buckets, 0, b)
		for _, pe := range node.pes {
			for {
				if _, ok := pe.queue.Dequeue(); !ok {
					break
				}
			}
		}
	}
	unpack() // the first batch sizes the buckets
	if got := node.pes[0].Enqueued() + node.pes[1].Enqueued(); got != int64(len(msgs)) {
		t.Fatalf("unpack enqueued %d messages, want %d", got, len(msgs))
	}
	if allocs := testing.AllocsPerRun(100, unpack); allocs != 0 {
		t.Fatalf("unpacking a batch onto a 2-worker node allocates %.1f per batch, want 0", allocs)
	}
}

// Tree broadcast over a lossy transport, with and without the aggregation
// layer armed: every PE receives exactly one copy. Broadcast tree traffic
// bypasses the batch buffers (clones are NoAgg), so with aggregation on
// this exercises the two paths coexisting over the same reliability
// sublayer — batched unicasts would share sequence space with the tree's
// retransmitted clones.
func TestBroadcastFaultyExactlyOnce(t *testing.T) {
	tightRetries(t)
	for _, tc := range []struct {
		name string
		agc  *aggregate.Config
	}{
		{"agg=off", nil},
		{"agg=on", &aggregate.Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nodes, workers = 5, 2
			tr, err := transport.New("faulty:seed=43,drop=0.08,dup=0.04,delayrate=0.2,delaymax=200us", nodes, workers)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			cfg := Config{
				Nodes: nodes, WorkersPerNode: workers, Mode: ModeSMP,
				Transport: tr, Aggregation: tc.agc,
			}
			var got sync.Map
			var count atomic.Int64
			var h int
			runMachine(t, cfg,
				func(m *Machine) {
					total := int64(m.NumPEs())
					h = m.RegisterHandler(func(pe *PE, msg *Message) {
						if _, dup := got.LoadOrStore(pe.Id(), true); dup {
							t.Errorf("PE %d received broadcast twice", pe.Id())
						}
						if count.Add(1) == total {
							pe.Machine().Shutdown()
						}
					})
				},
				func(pe *PE) {
					if pe.Id() == 3 {
						if err := pe.Broadcast(&Message{Handler: h, Bytes: 16}); err != nil {
							t.Errorf("broadcast: %v", err)
						}
					}
				})
			if count.Load() != int64(nodes*workers) {
				t.Fatalf("broadcast reached %d PEs, want %d", count.Load(), nodes*workers)
			}
		})
	}
}
