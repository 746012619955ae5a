package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blueq/internal/obs"
	"blueq/internal/torus"
)

// ContentionConfig parameterizes the contended backend.
type ContentionConfig struct {
	// TimeScale multiplies the modelled link delays into wall-clock
	// delays. 1.0 (the default) delivers at the modelled BG/Q timings;
	// larger values stretch the network so contention effects dominate
	// host-scheduling noise in experiments.
	TimeScale float64
}

// Contended wraps an inner transport and books every packet across the
// per-link FCFS serialization model of the 5D torus — the same
// store-and-forward link-bandwidth accounting the internal/cluster model uses
// (torus.EffectiveBW, torus.HopLatencySeconds), but applied to the live
// functional runtime: a packet's delivery is delayed by the serialization
// of its packetized payload on every link of its dimension-order route,
// queueing FCFS behind earlier packets on shared links.
type Contended struct {
	inner Transport
	scale float64
	dl    *delayLine
	eps   []Endpoint

	mu    sync.Mutex
	links map[[2]int]time.Time // directed link -> busy-until

	injected  atomic.Int64
	stalled   atomic.Int64
	stallNS   atomic.Int64
	linkDrops atomic.Int64
}

// NewContended wraps inner with the torus contention model.
func NewContended(inner Transport, cfg ContentionConfig) *Contended {
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = 1.0
	}
	t := &Contended{
		inner: inner,
		scale: scale,
		links: make(map[[2]int]time.Time),
	}
	t.dl = newDelayLine(func(src int, p torus.Packet) {
		_ = inner.Endpoint(src).Inject(p)
	})
	t.eps = make([]Endpoint, inner.Nodes())
	for r := range t.eps {
		t.eps[r] = &contendedEndpoint{t: t, inner: inner.Endpoint(r)}
	}
	return t
}

// Nodes returns the number of node endpoints.
func (t *Contended) Nodes() int { return t.inner.Nodes() }

// Torus returns the underlying topology.
func (t *Contended) Torus() *torus.Torus { return t.inner.Torus() }

// Endpoint returns the contention-modelling endpoint of the given rank.
func (t *Contended) Endpoint(rank int) Endpoint { return t.eps[rank] }

// Reliable reports true: contention delays packets but never loses them.
func (t *Contended) Reliable() bool { return t.inner.Reliable() }

// Pending reports whether packets are still crossing the modelled network.
func (t *Contended) Pending() bool { return t.dl.pending() || t.inner.Pending() }

// Advance delivers due packets synchronously.
func (t *Contended) Advance() int { return t.dl.advance() + t.inner.Advance() }

// Stats combines the contention counters with the inner delivery counts.
func (t *Contended) Stats() Stats {
	s := t.inner.Stats()
	s.Injected = t.injected.Load()
	s.Delayed += t.stalled.Load()
	s.StallNS += t.stallNS.Load()
	s.LinkDrops += t.linkDrops.Load()
	return s
}

// Close stops the delivery goroutine; packets on the wire are dropped.
func (t *Contended) Close() {
	t.dl.close()
	t.inner.Close()
}

// String is the transport's canonical spec: New parses it back to an
// equivalent transport.
func (t *Contended) String() string { return fmt.Sprintf("contended:scale=%g", t.scale) }

// bookRoute walks the fail-aware route from src to dst, serializing the
// packetized payload on every directed link FCFS behind earlier traffic,
// and returns the absolute delivery time plus the portion spent stalled
// behind other packets. The route is the torus's cached verdict
// (Torus.Verdict), so a link failure, heal or adaptive path-salt bump
// recomputes exactly the routes it affects.
// ok=false means the down links partition the pair and the packet is
// lost on the severed wire. The due time is computed against a single
// clock read under the booking lock: per-(src,dst) due times are then
// strictly monotone in booking order, which is the invariant the delay
// line's FIFO guarantee rests on (a relative delay re-anchored to a second
// clock read at schedule time loses it whenever the goroutine is preempted
// between the two reads).
func (t *Contended) bookRoute(src, dst, bytes int) (due time.Time, stall time.Duration, ok bool) {
	if src == dst {
		return time.Now(), 0, true
	}
	packets := (bytes + torus.PacketSize - 1) / torus.PacketSize
	if packets < 1 {
		packets = 1
	}
	ser := time.Duration(float64(packets*torus.PacketSize) / torus.EffectiveBW * 1e9 * t.scale)
	hop := time.Duration(torus.HopLatencySeconds * 1e9 * t.scale)
	v := t.inner.Torus().Verdict(src, dst)
	if !v.OK {
		return time.Time{}, 0, false
	}

	t.mu.Lock()
	cursor := time.Now()
	prev := src
	for i, to := range v.Path {
		key := [2]int{prev, to}
		start := cursor
		if free, ok := t.links[key]; ok && free.After(start) {
			stall += free.Sub(start)
			start = free
		}
		serL := ser
		if v.Slows != nil && v.Slows[i] > 0 {
			serL = time.Duration(float64(ser) * v.Slows[i])
		}
		end := start.Add(serL)
		t.links[key] = end
		cursor = end.Add(hop)
		prev = to
	}
	t.mu.Unlock()
	return cursor, stall, true
}

// contendedEndpoint intercepts Inject to apply the link model; everything
// on the reception side delegates to the inner endpoint.
type contendedEndpoint struct {
	t     *Contended
	inner Endpoint
}

func (e *contendedEndpoint) Rank() int                            { return e.inner.Rank() }
func (e *contendedEndpoint) FIFOCount() int                       { return e.inner.FIFOCount() }
func (e *contendedEndpoint) SetArrivalHook(fifo int, hook func()) { e.inner.SetArrivalHook(fifo, hook) }
func (e *contendedEndpoint) Poll(fifo int) (torus.Packet, bool)   { return e.inner.Poll(fifo) }
func (e *contendedEndpoint) Pending() bool                        { return e.inner.Pending() }

func (e *contendedEndpoint) Inject(p torus.Packet) error {
	t := e.t
	if p.Dst < 0 || p.Dst >= t.Nodes() {
		return fmt.Errorf("transport: destination rank %d out of range [0,%d)", p.Dst, t.Nodes())
	}
	due, stall, ok := t.bookRoute(e.inner.Rank(), p.Dst, p.Bytes)
	t.injected.Add(1)
	if !ok {
		t.linkDrops.Add(1)
		if obs.On() {
			obsLinkDrop.Inc(e.inner.Rank())
		}
		return nil
	}
	if stall > 0 {
		t.stalled.Add(1)
		t.stallNS.Add(int64(stall))
		if obs.On() {
			obsContentionStalled.Inc(e.inner.Rank())
			obsContentionStallNS.Add(e.inner.Rank(), int64(stall))
		}
	}
	t.dl.schedule(due, e.inner.Rank(), p)
	return nil
}
