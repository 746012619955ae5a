// Package transport abstracts the messaging substrate underneath the PAMI
// layer. The paper's machine layer cleanly separates MU packets and PAMI
// contexts from the Converse scheduler, which is what lets it swap the
// point-to-point path for many-to-many and measure each path in isolation;
// this package gives the Go runtime the same seam.
//
// A Transport owns one Endpoint per simulated node. Endpoints carry MU
// packets: Inject sends a packet toward its destination node, Poll drains a
// reception FIFO, and SetArrivalHook registers the wakeup callback PAMI
// wires to its contexts. Three backends implement the interface:
//
//   - Inproc: the existing functional MU/torus network, unchanged — every
//     packet is delivered instantly and exactly once. This is the default
//     and is benchmark-neutral with respect to the pre-transport runtime.
//   - Contended: a wrapper that books every packet across the per-link
//     FCFS serialization model of the 5D torus (the same link-bandwidth
//     figures the cluster model uses), so experiments run with realistic torus
//     contention instead of instant delivery.
//   - Faulty: a seeded fault injector that drops, duplicates, and delays
//     packets. It reports Reliable() == false, which arms the PAMI layer's
//     ack/retry/backoff protocol, turning "every packet always arrives"
//     into tested graceful degradation.
//
// Wrappers compose: Contended and Faulty both wrap an inner Transport and
// deliver through it, so the destination-side mechanics (reception FIFOs,
// arrival hooks, wakeups) are identical across backends.
package transport

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"blueq/internal/torus"
)

// Endpoint is one node's attachment point to the transport: the MU of that
// node, or a backend's wrapper around it. *torus.MU implements Endpoint.
type Endpoint interface {
	// Rank returns the node rank this endpoint belongs to.
	Rank() int
	// FIFOCount returns the number of reception FIFOs.
	FIFOCount() int
	// SetArrivalHook installs a callback invoked after a packet lands in
	// the given reception FIFO.
	SetArrivalHook(fifo int, hook func())
	// Inject sends a packet toward p.Dst. The transport stamps p.Src with
	// this endpoint's rank. Delivery may be delayed, reordered, dropped or
	// duplicated depending on the backend.
	Inject(p torus.Packet) error
	// Poll removes one packet from the given reception FIFO.
	Poll(fifo int) (torus.Packet, bool)
	// Pending reports whether any reception FIFO holds packets.
	Pending() bool
}

// The inproc endpoint is the MU itself, with zero behaviour change.
var _ Endpoint = (*torus.MU)(nil)

// Killer is the optional fail-stop control surface of a transport. A
// backend that implements it can silence a node mid-run: once killed, the
// node's endpoint neither injects nor receives — packets from it, to it,
// and already in flight toward it vanish, exactly like powering off a BG/Q
// node board. The faulty backend implements Killer; the fault-tolerance
// layer (internal/ft) detects the resulting silence via heartbeats.
type Killer interface {
	// KillNode marks the node dead. Idempotent; safe from any goroutine.
	KillNode(rank int)
	// NodeKilled reports whether the node has been killed.
	NodeKilled(rank int) bool
	// SetKillHook registers a callback invoked (once per node, from the
	// killing goroutine) when a node dies, so the runtime above can halt
	// the node's schedulers. Must be set before traffic starts.
	SetKillHook(hook func(rank int))
}

// Stats counts transport-level events. Wrapper backends add their own
// events on top of the inner transport's delivery counts.
type Stats struct {
	// Injected counts packets accepted from senders.
	Injected int64
	// Delivered counts packets landed in destination reception FIFOs
	// (a duplicated packet counts twice).
	Delivered int64
	// Dropped counts packets the faulty backend discarded.
	Dropped int64
	// Duplicated counts packets the faulty backend delivered twice.
	Duplicated int64
	// Delayed counts packets given extra injected latency.
	Delayed int64
	// Corrupted counts packets whose wire image the faulty backend damaged
	// (bit flips in header fields or a garbled payload).
	Corrupted int64
	// Truncated counts packets delivered short (partial reads).
	Truncated int64
	// StallNS is the cumulative wall-clock time packets spent queued
	// behind other packets on contended links.
	StallNS int64
	// KilledNodes counts nodes killed by fail-stop injection.
	KilledNodes int64
	// KilledDrops counts packets discarded because their source or
	// destination node was dead.
	KilledDrops int64
	// LinkDrops counts packets lost to link faults: crossings of a flaky
	// link, or a (src,dst) pair the down links have partitioned.
	LinkDrops int64
}

// Transport is a pluggable messaging substrate spanning all simulated
// nodes of a machine.
type Transport interface {
	// Nodes returns the number of node endpoints.
	Nodes() int
	// Torus returns the underlying topology.
	Torus() *torus.Torus
	// Endpoint returns the attachment point of the given node rank.
	Endpoint(rank int) Endpoint
	// Reliable reports whether every injected packet is delivered exactly
	// once in bounded time. When false, the PAMI layer layers its
	// ack/retry/dedup protocol over eager sends.
	Reliable() bool
	// Pending reports whether packets are still in flight inside the
	// transport itself (delay queues); it does not cover packets already
	// sitting in reception FIFOs.
	Pending() bool
	// Advance synchronously delivers any in-flight packets that are due,
	// returning the number delivered. Backends with no internal time
	// component return 0; delivery is also driven by a background timer,
	// so calling Advance is an optimization, never a requirement.
	Advance() int
	// Stats returns a snapshot of the transport's event counters.
	Stats() Stats
	// Close stops background delivery machinery. In-flight packets are
	// dropped, like packets on the wire at machine teardown.
	Close()

	fmt.Stringer
}

// New builds a transport over the standard BG/Q partition shape for the
// given node count, from a flag-style spec:
//
//	inproc
//	contended[:scale=F]
//	faulty[:seed=N,drop=F,dup=F,delayrate=F,delaymax=DUR,corrupt=F,truncate=F,unreliable=B,scale=F]
//
// Rates are probabilities in [0,1]; delaymax takes time.ParseDuration
// syntax; scale multiplies the contended backend's modelled link delays
// into wall-clock delays (faulty accepts it to wrap contended underneath).
// corrupt and truncate damage delivered packets (bit flips and short
// reads, caught by the PAMI CRC); unreliable=1 arms the reliability +
// checksum stack with every fault rate at zero (protocol-overhead
// benchmarks). The spec carries no fault schedule: node kills go through
// the Killer interface (converse.Machine.KillNode) and link faults through
// the torus link table (Torus().FailLink, HealLink, DegradeLink).
// Malformed options — unknown keys, duplicate keys, rates outside [0,1] —
// are rejected with a descriptive error rather than silently ignored. An
// empty spec selects inproc.
func New(spec string, nodes, fifosPerNode int) (Transport, error) {
	name := spec
	var opts string
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, opts = spec[:i], spec[i+1:]
	}
	kv, err := parseOpts(opts)
	if err != nil {
		return nil, fmt.Errorf("transport %q: %w", spec, err)
	}
	inproc := NewInproc(torus.MustNew(torus.ShapeForNodes(nodes)), fifosPerNode)
	switch name {
	case "", "inproc":
		if len(kv) > 0 {
			return nil, fmt.Errorf("transport %q: inproc takes no options", spec)
		}
		return inproc, nil
	case "contended":
		cfg := ContentionConfig{}
		for k, v := range kv {
			switch k {
			case "scale":
				if cfg.TimeScale, err = parseScale(v); err != nil {
					return nil, fmt.Errorf("transport %q: scale: %w", spec, err)
				}
			default:
				return nil, fmt.Errorf("transport %q: unknown option %q", spec, k)
			}
		}
		return NewContended(inproc, cfg), nil
	case "faulty":
		cfg := FaultConfig{}
		scale := 0.0
		for k, v := range kv {
			switch k {
			case "seed":
				if cfg.Seed, err = strconv.ParseInt(v, 10, 64); err != nil {
					return nil, fmt.Errorf("transport %q: seed: %w", spec, err)
				}
			case "drop":
				if cfg.DropRate, err = parseRate(v); err != nil {
					return nil, fmt.Errorf("transport %q: drop: %w", spec, err)
				}
			case "dup":
				if cfg.DupRate, err = parseRate(v); err != nil {
					return nil, fmt.Errorf("transport %q: dup: %w", spec, err)
				}
			case "delayrate":
				if cfg.DelayRate, err = parseRate(v); err != nil {
					return nil, fmt.Errorf("transport %q: delayrate: %w", spec, err)
				}
			case "delaymax":
				if cfg.DelayMax, err = time.ParseDuration(v); err != nil {
					return nil, fmt.Errorf("transport %q: delaymax: %w", spec, err)
				}
				if cfg.DelayMax <= 0 {
					return nil, fmt.Errorf("transport %q: delaymax %q must be positive", spec, v)
				}
			case "corrupt":
				if cfg.CorruptRate, err = parseRate(v); err != nil {
					return nil, fmt.Errorf("transport %q: corrupt: %w", spec, err)
				}
			case "truncate":
				if cfg.TruncateRate, err = parseRate(v); err != nil {
					return nil, fmt.Errorf("transport %q: truncate: %w", spec, err)
				}
			case "unreliable":
				if cfg.ForceUnreliable, err = strconv.ParseBool(v); err != nil {
					return nil, fmt.Errorf("transport %q: unreliable: %w", spec, err)
				}
			case "scale":
				if scale, err = parseScale(v); err != nil {
					return nil, fmt.Errorf("transport %q: scale: %w", spec, err)
				}
			default:
				return nil, fmt.Errorf("transport %q: unknown option %q", spec, k)
			}
		}
		var inner Transport = inproc
		if scale > 0 {
			inner = NewContended(inproc, ContentionConfig{TimeScale: scale})
		}
		return NewFaulty(inner, cfg), nil
	default:
		return nil, fmt.Errorf("transport %q: unknown backend (want inproc, contended or faulty)", spec)
	}
}

// WithSeed returns spec with its seed option forced to the given value, so
// a CLI -seed flag can make any faulty run reproducible without editing the
// spec string by hand. Non-faulty specs are returned unchanged.
func WithSeed(spec string, seed int64) string {
	name, opts, _ := strings.Cut(spec, ":")
	if name != "faulty" {
		return spec
	}
	seedOpt := "seed=" + strconv.FormatInt(seed, 10)
	if opts == "" {
		return name + ":" + seedOpt
	}
	parts := strings.Split(opts, ",")
	replaced := false
	for i, p := range parts {
		if strings.HasPrefix(p, "seed=") {
			parts[i] = seedOpt
			replaced = true
		}
	}
	if !replaced {
		parts = append(parts, seedOpt)
	}
	return name + ":" + strings.Join(parts, ",")
}

func parseOpts(opts string) (map[string]string, error) {
	kv := map[string]string{}
	if opts == "" {
		return kv, nil
	}
	for _, part := range strings.Split(opts, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("malformed option %q (want key=value)", part)
		}
		if _, dup := kv[k]; dup {
			return nil, fmt.Errorf("duplicate option %q", k)
		}
		kv[k] = v
	}
	return kv, nil
}

// parseRate parses a probability and rejects values outside [0,1]; the
// comparison is written so that NaN is outside too.
func parseRate(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(f >= 0 && f <= 1) {
		return 0, fmt.Errorf("rate %g outside [0,1]", f)
	}
	return f, nil
}

// parseScale parses a time-scale multiplier and rejects non-positive
// values (scale=0 would silently disable the contended wrapper) and
// non-finite ones (NaN or +Inf would reach the delay line as a duration).
func parseScale(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(f > 0) || math.IsInf(f, 1) {
		return 0, fmt.Errorf("scale %g must be positive and finite", f)
	}
	return f, nil
}
