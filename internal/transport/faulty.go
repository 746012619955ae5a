package transport

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blueq/internal/obs"
	"blueq/internal/torus"
)

// FaultConfig parameterizes the faulty backend. All rates are
// probabilities in [0,1], rolled independently per injected packet from a
// deterministic seeded source.
type FaultConfig struct {
	// Seed seeds the fault pattern; 0 selects seed 1. The same seed and
	// the same injection sequence reproduce the same faults.
	Seed int64
	// DropRate is the probability a packet is silently discarded.
	DropRate float64
	// DupRate is the probability a packet is delivered twice.
	DupRate float64
	// DelayRate is the probability a packet is held for a uniform random
	// delay in (0, DelayMax] before delivery, reordering it behind later
	// traffic.
	DelayRate float64
	// DelayMax bounds injected delays; 0 selects 200µs.
	DelayMax time.Duration
	// CorruptRate is the probability a packet's wire image is corrupted in
	// flight: a seeded bit flip in a header field (size, FIFO, destination,
	// checksum) or a garbled payload. Without the PAMI CRC armed, corrupt
	// packets deliver wrong bytes silently — exactly the failure mode the
	// checksum exists to catch.
	CorruptRate float64
	// TruncateRate is the probability a packet arrives short: its modelled
	// size shrinks and the payload is unusable (a partial read off the
	// wire).
	TruncateRate float64
	// ForceUnreliable makes Reliable() report false even with every fault
	// rate at zero, arming the full reliability + checksum stack above a
	// perfect network. Benchmarks use it to measure protocol overhead
	// deterministically.
	ForceUnreliable bool
}

// Faulty wraps an inner transport with seeded fault injection: packets are
// dropped, duplicated, and delayed according to FaultConfig. It reports
// Reliable() == false, arming the PAMI reliability protocol (acks,
// retransmission with backoff, in-order dedup delivery) above it.
type Faulty struct {
	inner Transport
	cfg   FaultConfig
	dl    *delayLine
	eps   []Endpoint
	// zero: every fault rate is 0, so a packet whose route has no flaky or
	// slow link rolls no dice and carries no delay.
	zero bool

	mu  sync.Mutex
	rng *rand.Rand

	injected   atomic.Int64
	dropped    atomic.Int64
	duplicated atomic.Int64
	delayed    atomic.Int64
	corrupted  atomic.Int64
	truncated  atomic.Int64

	killed      []atomic.Bool
	killedNodes atomic.Int64
	killedDrops atomic.Int64

	// viaContended: the inner transport is the contended model, which then
	// owns slow-link timing.
	linkDrops    atomic.Int64
	viaContended bool
}

// NewFaulty wraps inner with fault injection.
func NewFaulty(inner Transport, cfg FaultConfig) *Faulty {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.DelayMax <= 0 {
		cfg.DelayMax = 200 * time.Microsecond
	}
	_, viaContended := inner.(*Contended)
	t := &Faulty{
		inner:        inner,
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		killed:       make([]atomic.Bool, inner.Nodes()),
		viaContended: viaContended,
		zero: cfg.DropRate == 0 && cfg.DupRate == 0 && cfg.DelayRate == 0 &&
			cfg.CorruptRate == 0 && cfg.TruncateRate == 0,
	}
	t.dl = newDelayLine(func(src int, p torus.Packet) {
		// A packet in flight toward (or from) a node that died while it was
		// on the wire is lost with the node.
		if t.killed[src].Load() || t.killed[p.Dst].Load() {
			t.killedDrops.Add(1)
			if obs.On() {
				obsKillDrop.Inc(src)
			}
			return
		}
		_ = inner.Endpoint(src).Inject(p)
	})
	t.eps = make([]Endpoint, inner.Nodes())
	for r := range t.eps {
		t.eps[r] = &faultyEndpoint{t: t, inner: inner.Endpoint(r)}
	}
	return t
}

// KillNode fail-stops the node: every packet from it, to it, or in flight
// toward it is discarded from now on. Idempotent. Implements Killer.
func (t *Faulty) KillNode(rank int) {
	if rank < 0 || rank >= len(t.killed) || !t.killed[rank].CompareAndSwap(false, true) {
		return
	}
	t.killedNodes.Add(1)
	if obs.On() {
		obsKillNode.Inc(rank)
	}
}

var _ Killer = (*Faulty)(nil)

// Nodes returns the number of node endpoints.
func (t *Faulty) Nodes() int { return t.inner.Nodes() }

// Torus returns the underlying topology.
func (t *Faulty) Torus() *torus.Torus { return t.inner.Torus() }

// Endpoint returns the fault-injecting endpoint of the given rank.
func (t *Faulty) Endpoint(rank int) Endpoint { return t.eps[rank] }

// Reliable reports false whenever faults are configured: packets may be
// lost, duplicated, reordered, or corrupted, and the layers above must
// cope. Link faults installed on the torus do not flip it: a run that
// fails or degrades links passes unreliable=1 or a nonzero rate so the
// reliability sublayer is armed to repair their losses.
func (t *Faulty) Reliable() bool {
	return !t.cfg.ForceUnreliable &&
		t.cfg.DropRate == 0 && t.cfg.DupRate == 0 && t.cfg.DelayRate == 0 &&
		t.cfg.CorruptRate == 0 && t.cfg.TruncateRate == 0 && t.inner.Reliable()
}

// Pending reports whether delayed packets remain in flight.
func (t *Faulty) Pending() bool { return t.dl.pending() || t.inner.Pending() }

// Advance delivers due delayed packets synchronously.
func (t *Faulty) Advance() int { return t.dl.advance() + t.inner.Advance() }

// Stats combines the fault counters with the inner delivery counts.
func (t *Faulty) Stats() Stats {
	s := t.inner.Stats()
	s.Injected = t.injected.Load()
	s.Dropped += t.dropped.Load()
	s.Duplicated += t.duplicated.Load()
	s.Delayed += t.delayed.Load()
	s.Corrupted = t.corrupted.Load()
	s.Truncated = t.truncated.Load()
	s.KilledNodes = t.killedNodes.Load()
	s.KilledDrops = t.killedDrops.Load()
	s.LinkDrops += t.linkDrops.Load()
	return s
}

// Close stops the delivery goroutine; delayed packets are dropped.
func (t *Faulty) Close() {
	t.dl.close()
	t.inner.Close()
}

// String is the transport's canonical spec — every option spelled out,
// defaults included — so New parses it back to an equivalent transport.
func (t *Faulty) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faulty:seed=%d,drop=%g,dup=%g,delayrate=%g,delaymax=%s,corrupt=%g,truncate=%g",
		t.cfg.Seed, t.cfg.DropRate, t.cfg.DupRate, t.cfg.DelayRate, t.cfg.DelayMax,
		t.cfg.CorruptRate, t.cfg.TruncateRate)
	if t.cfg.ForceUnreliable {
		b.WriteString(",unreliable=true")
	}
	if c, ok := t.inner.(*Contended); ok {
		fmt.Fprintf(&b, ",scale=%g", c.scale)
	}
	return b.String()
}

// Garbled marks a payload whose bits were damaged in flight (corruption)
// or never fully arrived (truncation). The model cannot flip bits inside
// an arbitrary in-process payload reference, so damage is represented by
// wrapping it: any consumer that type-switches on the payload sees an
// unknown kind, exactly as a real receiver would fail to parse a damaged
// wire image. Orig is retained for debugging only.
type Garbled struct {
	Orig      any
	Truncated bool
}

// faultyEndpoint intercepts Inject to roll the fault dice; the reception
// side delegates to the inner endpoint.
type faultyEndpoint struct {
	t     *Faulty
	inner Endpoint
}

func (e *faultyEndpoint) Rank() int                            { return e.inner.Rank() }
func (e *faultyEndpoint) FIFOCount() int                       { return e.inner.FIFOCount() }
func (e *faultyEndpoint) SetArrivalHook(fifo int, hook func()) { e.inner.SetArrivalHook(fifo, hook) }

// Poll and Pending go silent once the node is dead: whatever sat in its
// reception FIFOs died with it.
func (e *faultyEndpoint) Poll(fifo int) (torus.Packet, bool) {
	if e.t.killed[e.inner.Rank()].Load() {
		return torus.Packet{}, false
	}
	return e.inner.Poll(fifo)
}

func (e *faultyEndpoint) Pending() bool {
	if e.t.killed[e.inner.Rank()].Load() {
		return false
	}
	return e.inner.Pending()
}

func (e *faultyEndpoint) Inject(p torus.Packet) error {
	t := e.t
	if p.Dst < 0 || p.Dst >= t.Nodes() {
		return fmt.Errorf("transport: destination rank %d out of range [0,%d)", p.Dst, t.Nodes())
	}
	src := e.inner.Rank()
	if t.killed[src].Load() || t.killed[p.Dst].Load() {
		t.killedDrops.Add(1)
		if obs.On() {
			obsKillDrop.Inc(src)
		}
		return nil
	}
	t.injected.Add(1)

	// Link faults: one atomic load when the table is quiet. With faults
	// armed, the torus's cached fail-aware route decides the packet's fate
	// — a partitioned pair loses the packet outright, degraded links on
	// the route add loss probability and serialization delay.
	var linkFlaky, linkSlow float64
	if tor := t.inner.Torus(); tor.HasLinkFaults() {
		v := tor.Verdict(src, p.Dst)
		if !v.OK {
			t.linkDrops.Add(1)
			if obs.On() {
				obsLinkDrop.Inc(src)
			}
			return nil
		}
		linkFlaky = v.Flaky
		if !t.viaContended {
			// Over inproc there is no serialization model to stretch, so a
			// slow link becomes injected delay; over contended the booking
			// path applies the factor to the link itself.
			for _, f := range v.Slows {
				linkSlow += f
			}
		}
	}

	if t.zero && linkFlaky == 0 && linkSlow == 0 {
		// Nothing to roll and no delay: skip the dice lock and the clock.
		t.dl.scheduleDue(src, p)
		return nil
	}

	t.mu.Lock()
	linkDropped := linkFlaky > 0 && t.rng.Float64() < linkFlaky
	drop := !linkDropped && t.rng.Float64() < t.cfg.DropRate
	dup := !drop && !linkDropped && t.rng.Float64() < t.cfg.DupRate
	var delay, dupDelay time.Duration
	if !drop && !linkDropped && t.cfg.DelayRate > 0 && t.rng.Float64() < t.cfg.DelayRate {
		delay = time.Duration(1 + t.rng.Int63n(int64(t.cfg.DelayMax)))
	}
	if dup {
		dupDelay = time.Duration(1 + t.rng.Int63n(int64(t.cfg.DelayMax)))
	}
	// Corruption damages the delivered copy only: a duplicate is a second
	// wire image and travels undamaged, like independent physical packets.
	corrupted, truncated := false, false
	if !drop && !linkDropped && t.cfg.CorruptRate > 0 && t.rng.Float64() < t.cfg.CorruptRate {
		p = t.corruptLocked(p)
		corrupted = true
	} else if !drop && !linkDropped && t.cfg.TruncateRate > 0 && t.rng.Float64() < t.cfg.TruncateRate {
		p = t.truncateLocked(p)
		truncated = true
	}
	t.mu.Unlock()

	if linkDropped {
		t.linkDrops.Add(1)
		if obs.On() {
			obsLinkDrop.Inc(src)
		}
		return nil
	}
	if linkSlow > 0 {
		delay += time.Duration(linkSlow * torus.TransferTime(p.Bytes, 1) * 1e9)
	}

	if corrupted {
		t.corrupted.Add(1)
		if obs.On() {
			obsFaultCorrupt.Inc(src)
		}
	}
	if truncated {
		t.truncated.Add(1)
		if obs.On() {
			obsFaultTruncate.Inc(src)
		}
	}
	if drop {
		t.dropped.Add(1)
		if obs.On() {
			obsFaultDrop.Inc(src)
		}
		return nil
	}
	if delay > 0 {
		t.delayed.Add(1)
		if obs.On() {
			obsFaultDelay.Inc(src)
		}
	}
	t.dl.schedule(time.Now().Add(delay), src, p)
	if dup {
		t.duplicated.Add(1)
		if obs.On() {
			obsFaultDup.Inc(src)
		}
		t.dl.schedule(time.Now().Add(dupDelay), src, p)
	}
	return nil
}

// corruptLocked flips seeded bits in the packet's wire image: a header
// field (modelled size, checksum, destination) or the payload itself.
// Every mutation is detectable by a CRC over header+payload; without one,
// a flipped destination silently misroutes and a flipped size silently
// lies — the motivating failure modes for the PAMI checksum. Caller holds
// t.mu (for the rng).
func (t *Faulty) corruptLocked(p torus.Packet) torus.Packet {
	switch t.rng.Intn(4) {
	case 0:
		p.Bytes ^= 1 << uint(t.rng.Intn(16))
	case 1:
		p.Sum ^= 1 << uint(t.rng.Intn(32))
	case 2:
		if n := t.Nodes(); n > 1 {
			p.Dst = (p.Dst + 1 + t.rng.Intn(n-1)) % n
		}
	default:
		p.Payload = Garbled{Orig: p.Payload}
	}
	return p
}

// truncateLocked models a short read: the packet arrives with fewer bytes
// than were sent and an unparseable partial payload. Caller holds t.mu.
func (t *Faulty) truncateLocked(p torus.Packet) torus.Packet {
	if p.Bytes > 0 {
		p.Bytes = t.rng.Intn(p.Bytes)
	}
	p.Payload = Garbled{Orig: p.Payload, Truncated: true}
	return p
}
