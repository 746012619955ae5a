package scenario

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/converse"
	"blueq/internal/flowctl"
	"blueq/internal/lockless"
	"blueq/internal/transport"
)

// Residency is a run's bounded-memory evidence: the sampled peaks of the
// machine-wide scheduler backlog and of the PAMI reorder buffers, beside
// what the flow-control layer promises for them. Zero bounds mean flow
// control was not armed and nothing is promised.
type Residency struct {
	PeakResident, ResidentBound int64
	PeakReorder, ReorderCap     int64
}

// Bounded is the bounded-memory verdict: neither peak above its bound.
func (r Residency) Bounded() error {
	if r.ResidentBound == 0 {
		return nil
	}
	if r.PeakResident > r.ResidentBound {
		return fmt.Errorf("memory unbounded: resident backlog peaked at %d, bound %d", r.PeakResident, r.ResidentBound)
	}
	if r.PeakReorder > r.ReorderCap {
		return fmt.Errorf("reorder buffer exceeded cap: %d > %d", r.PeakReorder, r.ReorderCap)
	}
	return nil
}

// WatchResidency starts polling m's scheduler backlog and reorder buffers
// and returns the function that stops the poll and reports the peaks. The
// resident bound covers consumers slowed PEs, each holding at most its L2
// ring, its overflow cap, the scheduler pull bound and the credit window
// still in flight, plus slack for the poll racing enqueues.
func WatchResidency(m *converse.Machine, consumers int) (finish func() Residency) {
	var r Residency
	if fc := m.FlowController(); fc != nil {
		c := fc.Config()
		ring := m.Config().RingSize
		if ring == 0 {
			ring = lockless.DefaultRingSize
		}
		r.ResidentBound = int64(consumers) * int64(ring+c.OverflowCap+64+c.Window+8)
		r.ReorderCap = int64(m.PAMIClient().ReorderCap())
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := m.QueueResidency(); n > r.PeakResident {
				r.PeakResident = n
			}
			for rank := 0; rank < m.NumNodes(); rank++ {
				if b := int64(m.PAMIClient().Node(rank).ReorderBuffered()); b > r.PeakReorder {
					r.PeakReorder = b
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	return func() Residency {
		close(stop)
		wg.Wait()
		return r
	}
}

// FloodConfig describes one one-way flood: PE 0 of a two-node, one-worker
// SMP machine sends numbered messages to PE 1 on the other node. Exactly
// one of Count and Duration bounds the send loop.
type FloodConfig struct {
	Transport string        // transport spec; "" is the default in-process network
	Count     int           // messages to send, or
	Duration  time.Duration // how long to keep sending
	// Rate, when positive, paces the sender at that many messages per
	// second in 1 ms ticks. A tick parked on backpressure just falls
	// behind: the rate is an offer, Sent is what really went.
	Rate        float64
	Bytes       int           // modelled payload size of every message
	Slow        time.Duration // consumer-side delay per execution (the overload)
	RingSize    int           // L2 ring size per PE (0 = the runtime's default)
	FlowControl *flowctl.Config
	Aggregation *aggregate.Config
}

// FloodResult is what one Flood run did. Counts come from the per-id
// ledger the consumer keeps; the two verdicts read them.
type FloodResult struct {
	Sent       int64 // sends the runtime accepted
	Distinct   int64 // ids executed at least once
	Duplicated int64 // ids executed more than once
	InWindow   int64 // executions completed by the time the send loop ended
	// Send is first send → last send returned; Drain is from there until
	// the consumer had executed everything sent.
	Send, Drain time.Duration
	Residency
	Parked     int64 // times a sender parked on backpressure
	Retries    int64 // packets the reliability sublayer retransmitted
	CRCRejects int64 // packets the wire CRC rejected
	Stats      transport.Stats

	rzvStarted, rzvPulled int64 // rendezvous headers sent, transfers pulled
}

// ExactlyOnce is the delivery verdict: every id sent ran once, none twice.
func (r FloodResult) ExactlyOnce() error {
	if r.Distinct != r.Sent || r.Duplicated > 0 {
		return fmt.Errorf("exactly-once violated: sent %d, distinct %d, duplicated %d", r.Sent, r.Distinct, r.Duplicated)
	}
	return nil
}

// ledger counts executions per message id. Only the consuming PE's
// scheduler goroutine records, so it needs no lock; ids are dense from 0.
type ledger struct{ counts []uint32 }

func (l *ledger) record(id int) {
	for id >= len(l.counts) {
		l.counts = append(l.counts, 0)
	}
	l.counts[id]++
}

func (l *ledger) tally() (distinct, duplicated int64) {
	for _, c := range l.counts {
		if c > 0 {
			distinct++
		}
		if c > 1 {
			duplicated++
		}
	}
	return distinct, duplicated
}

// Flood is the one flood driver outside bench/: the soak flood and
// saturation-sweep cells and the E16 / E17 rate tables are a FloodConfig
// plus what they print. It returns when the consumer has executed
// everything sent; a lost message leaves that waiting, and the watchdog
// turns it into ErrWedged beside the counts as far as they got.
func Flood(cfg FloodConfig) (FloodResult, error) {
	if (cfg.Count > 0) == (cfg.Duration > 0) {
		return FloodResult{}, fmt.Errorf("flood: exactly one of Count (%d) and Duration (%v) must be positive", cfg.Count, cfg.Duration)
	}
	tr, err := transport.New(cfg.Transport, 2, 1)
	if err != nil {
		return FloodResult{}, err
	}
	defer tr.Close()
	m, err := converse.NewMachine(converse.Config{
		Nodes: 2, WorkersPerNode: 1, Mode: converse.ModeSMP, Transport: tr,
		RingSize: cfg.RingSize, FlowControl: cfg.FlowControl, Aggregation: cfg.Aggregation,
	})
	if err != nil {
		return FloodResult{}, err
	}
	m.PE(1).SetInvokeDelay(cfg.Slow)

	var failed atomic.Pointer[error]
	fail := func(err error) {
		failed.CompareAndSwap(nil, &err)
		m.Shutdown()
	}
	// The run ends when executions catch up with the final send count.
	// Whichever side gets there last — the consumer's handler or the
	// sender closing its loop — stamps the drain time and stops the
	// machine; target stays -1 until the send loop is over.
	var led ledger
	var executed, target atomic.Int64
	target.Store(-1)
	var res FloodResult
	var sendEnd time.Time
	var drained sync.Once
	drain := func() {
		drained.Do(func() {
			res.Drain = time.Since(sendEnd)
			m.Shutdown()
		})
	}
	h := m.RegisterHandler(func(_ *converse.PE, msg *converse.Message) {
		led.record(msg.Payload.(int))
		if n, want := executed.Add(1), target.Load(); want >= 0 && n >= want {
			drain()
		}
	})

	watchdog := armWatchdog(cfg.Duration+120*time.Second, fail)
	defer watchdog.Stop()
	watch := WatchResidency(m, 1)
	m.Run(func(pe *converse.PE) {
		if pe.Id() != 0 {
			return
		}
		begin := time.Now()
		more := func() bool { return res.Sent < int64(cfg.Count) }
		if cfg.Duration > 0 {
			deadline := begin.Add(cfg.Duration)
			more = func() bool { return time.Now().Before(deadline) }
		}
		send := func() bool {
			msg := pe.NewMessage()
			msg.Handler = h
			msg.Bytes = cfg.Bytes
			msg.Payload = int(res.Sent)
			if err := pe.Send(1, msg); err != nil {
				fail(fmt.Errorf("flood send %d: %w", res.Sent, err))
				return false
			}
			res.Sent++
			return true
		}
		// A failed send has already stopped the machine: leave at once.
		if cfg.Rate <= 0 {
			for more() {
				if !send() {
					return
				}
			}
		} else {
			for credit := 0.0; more(); time.Sleep(time.Millisecond) {
				for credit += cfg.Rate / 1000; credit >= 1 && more(); credit-- {
					if !send() {
						return
					}
				}
			}
		}
		sendEnd = time.Now()
		res.Send = sendEnd.Sub(begin)
		res.InWindow = executed.Load()
		target.Store(res.Sent)
		if executed.Load() >= res.Sent {
			drain()
		}
	})
	res.Residency = watch()
	res.Distinct, res.Duplicated = led.tally()
	if fc := m.FlowController(); fc != nil {
		res.Parked = fc.BlockedTotal()
	}
	client := m.PAMIClient()
	for r := 0; r < client.Nodes(); r++ {
		res.Retries += client.Node(r).ReliabilityStats().Retries
	}
	res.CRCRejects = client.CRCFails()
	rzv := m.RendezvousStats()
	res.rzvStarted, res.rzvPulled = rzv.Started.Load(), rzv.Pulled.Load()
	res.Stats = tr.Stats()
	if p := failed.Load(); p != nil {
		return res, fmt.Errorf("%w (sent %d, executed %d)", *p, res.Sent, executed.Load())
	}
	return res, nil
}
