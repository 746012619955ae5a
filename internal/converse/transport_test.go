package converse

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/pami"
	"blueq/internal/transport"
)

func TestConfigRejectsBadRingSize(t *testing.T) {
	for _, size := range []int{-1, -1024, 3, 48, 1000} {
		cfg := Config{Nodes: 1, RingSize: size}
		if err := cfg.normalize(); err == nil {
			t.Errorf("RingSize=%d accepted, want error", size)
		}
	}
	for _, size := range []int{0, 1, 64, 1024} {
		cfg := Config{Nodes: 1, RingSize: size}
		if err := cfg.normalize(); err != nil {
			t.Errorf("RingSize=%d rejected: %v", size, err)
		}
	}
}

// tightRetries shrinks the PAMI retransmission timers so tests over lossy
// transports recover in milliseconds.
func tightRetries(t *testing.T) {
	t.Helper()
	base, max := pami.RetryBase, pami.RetryMax
	pami.RetryBase, pami.RetryMax = 200*time.Microsecond, 2*time.Millisecond
	t.Cleanup(func() { pami.RetryBase, pami.RetryMax = base, max })
}

// The cross-transport FIFO property: same-priority messages between any
// (source PE, destination PE) pair arrive in send order on every backend —
// instant delivery, link contention, and faults with retransmission alike.
func TestFIFOOrderAcrossTransports(t *testing.T) {
	specs := []string{
		"inproc",
		"contended",
		"faulty:seed=31,drop=0.05,dup=0.02,delayrate=0.1,delaymax=100us",
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			tightRetries(t)
			tr, err := transport.New(spec, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()

			const perPair = 100 // well under the L2 ring size, no overflow reordering
			cfg := Config{Nodes: 2, WorkersPerNode: 2, Mode: ModeSMP, Transport: tr}
			var mu sync.Mutex
			next := map[[2]int]int{} // (src PE, dst PE) -> expected sequence
			var violation atomic.Value
			var got atomic.Int64
			senders, receivers := []int{0, 1}, []int{2, 3}
			total := int64(len(senders) * len(receivers) * perPair)

			type fifoMsg struct{ src, seq int }
			var handler atomic.Int64
			runMachine(t, cfg, func(m *Machine) {
				h := m.RegisterHandler(func(pe *PE, msg *Message) {
					fm := msg.Payload.(fifoMsg)
					key := [2]int{fm.src, pe.Id()}
					mu.Lock()
					want := next[key]
					next[key]++
					mu.Unlock()
					if fm.seq != want {
						violation.CompareAndSwap(nil, fmt.Sprintf(
							"pair %v received seq %d, want %d", key, fm.seq, want))
					}
					if got.Add(1) == total {
						pe.Machine().Shutdown()
					}
				})
				handler.Store(int64(h))
			}, func(pe *PE) {
				if pe.Node().Rank() != 0 {
					return
				}
				for seq := 0; seq < perPair; seq++ {
					for _, dst := range receivers {
						msg := &Message{Handler: int(handler.Load()), Bytes: 64, Payload: fifoMsg{src: pe.Id(), seq: seq}}
						if err := pe.Send(dst, msg); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}
			})
			if v := violation.Load(); v != nil {
				t.Fatal(v)
			}
			if got.Load() != total {
				t.Fatalf("delivered %d/%d", got.Load(), total)
			}
		})
	}
}

// Shutdown racing in-flight rendezvous transfers: the machine must tear
// down cleanly — no deadlock, no retransmission firing into the stopped
// machine — while headers, pulls and acks are still crossing a slow lossy
// transport.
func TestShutdownRacesInflightRendezvous(t *testing.T) {
	tightRetries(t)
	tr, err := transport.New("faulty:seed=23,drop=0.1,delayrate=0.5,delaymax=2ms", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	cfg := Config{Nodes: 2, WorkersPerNode: 1, Mode: ModeSMP, Transport: tr}
	var got atomic.Int64
	var handler atomic.Int64
	m := runMachine(t, cfg, func(m *Machine) {
		h := m.RegisterHandler(func(pe *PE, msg *Message) {
			// Shut down after the first few arrivals, stranding the rest of
			// the burst mid-protocol.
			if got.Add(1) == 3 {
				pe.Machine().Shutdown()
			}
		})
		handler.Store(int64(h))
	}, func(pe *PE) {
		if pe.Id() != 0 {
			return
		}
		for i := 0; i < 40; i++ {
			payload := make([]byte, RendezvousThreshold+1)
			msg := &Message{Handler: int(handler.Load()), Bytes: len(payload), Payload: payload}
			if err := pe.Send(1, msg); err != nil {
				return
			}
		}
	})
	// Timers are cancelled: the retry counters must stop moving.
	retries := func() int64 {
		var n int64
		for r := 0; r < m.NumNodes(); r++ {
			n += m.PAMIClient().Node(r).ReliabilityStats().Retries
		}
		return n
	}
	time.Sleep(2 * time.Millisecond)
	r1 := retries()
	time.Sleep(5 * time.Millisecond)
	if r2 := retries(); r2 != r1 {
		t.Fatalf("header retransmissions continued after Shutdown: %d -> %d", r1, r2)
	}
}
