package transport

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"blueq/internal/torus"
)

// Link-fault injection: the transport-facing half of the torus link-state
// table (torus/links.go). Specs schedule timed link events the way kill=
// schedules fail-stops; programmatic FailLink/HealLink flip links from
// tests and chaos harnesses. The torus owns the routing consequence
// (fail-aware minimal routes, detours, partitions); this layer owns the
// packet-level behaviour — dropping crossings of flaky links, stretching
// crossings of slow links, and discarding packets whose source and
// destination the down links have partitioned.

// LinkEventMode says what a scheduled link event does to its link.
type LinkEventMode uint8

const (
	// LinkEvtDown takes the link out of service (routes recompute).
	LinkEvtDown LinkEventMode = iota
	// LinkEvtHeal returns the link to service.
	LinkEvtHeal
	// LinkEvtFlaky degrades the link: crossings drop with probability
	// Param (a gray link the router still uses).
	LinkEvtFlaky
	// LinkEvtSlow degrades the link: crossings serialize Param times
	// slower.
	LinkEvtSlow
)

func (m LinkEventMode) String() string {
	switch m {
	case LinkEvtDown:
		return "down"
	case LinkEvtHeal:
		return "heal"
	case LinkEvtFlaky:
		return "flaky"
	case LinkEvtSlow:
		return "slow"
	}
	return fmt.Sprintf("LinkEventMode(%d)", uint8(m))
}

// LinkEvent applies one link-state change a fixed duration after the
// transport is built.
type LinkEvent struct {
	A, B  int
	After time.Duration
	Mode  LinkEventMode
	Param float64 // flaky probability or slow factor
}

// String renders the event in the link= spec grammar parseLinks reads.
func (ev LinkEvent) String() string {
	s := fmt.Sprintf("%d-%d@%s:%s", ev.A, ev.B, ev.After, ev.Mode)
	if ev.Mode == LinkEvtFlaky || ev.Mode == LinkEvtSlow {
		s += fmt.Sprintf("=%g", ev.Param)
	}
	return s
}

// LinkFaulter is the link-level fault control surface of a transport.
// Both wrapper backends implement it by delegating to the shared torus
// table, so a fault installed through either is honoured by the whole
// stack (routing, contention booking, flaky rolls).
type LinkFaulter interface {
	// FailLink takes the physical link a-b out of service. Routes
	// recompute around it; a pair with no surviving route is partitioned
	// and its packets are discarded (counted in Stats.LinkDrops).
	FailLink(a, b int) error
	// HealLink returns the link to service.
	HealLink(a, b int) error
}

// parseLinks decodes a '+'-joined list of link events:
//
//	a-b@DUR[:down|heal|flaky=P|slow=F]
//
// The default mode is down. a-b must name a physical link of the torus;
// P is a probability in [0,1]; F is a serialization multiplier >= 1.
func parseLinks(v string, tor *torus.Torus) ([]LinkEvent, error) {
	var events []LinkEvent
	for _, part := range strings.Split(v, "+") {
		spec, after, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("malformed link event %q (want a-b@duration[:mode])", part)
		}
		as, bs, ok := strings.Cut(spec, "-")
		if !ok {
			return nil, fmt.Errorf("malformed link %q (want a-b)", spec)
		}
		a, err := strconv.Atoi(as)
		if err != nil {
			return nil, fmt.Errorf("link rank %q: %w", as, err)
		}
		b, err := strconv.Atoi(bs)
		if err != nil {
			return nil, fmt.Errorf("link rank %q: %w", bs, err)
		}
		if err := tor.SetLinkFault(a, b, torus.LinkFault{}); err != nil {
			// SetLinkFault validates rank range and physical adjacency
			// without changing state (an all-zero fault is a no-op entry).
			return nil, err
		}
		ds, ms, hasMode := strings.Cut(after, ":")
		dur, err := time.ParseDuration(ds)
		if err != nil {
			return nil, fmt.Errorf("link time %q: %w", ds, err)
		}
		if dur < 0 {
			return nil, fmt.Errorf("link time %q is negative", ds)
		}
		ev := LinkEvent{A: a, B: b, After: dur}
		if hasMode {
			mode, param, hasParam := strings.Cut(ms, "=")
			switch mode {
			case "down":
				if hasParam {
					return nil, fmt.Errorf("link mode %q takes no parameter", ms)
				}
			case "heal":
				if hasParam {
					return nil, fmt.Errorf("link mode %q takes no parameter", ms)
				}
				ev.Mode = LinkEvtHeal
			case "flaky":
				if !hasParam {
					return nil, fmt.Errorf("link mode flaky needs a probability (flaky=P)")
				}
				p, err := strconv.ParseFloat(param, 64)
				if err != nil {
					return nil, fmt.Errorf("link flaky rate %q: %w", param, err)
				}
				if !(p >= 0 && p <= 1) {
					return nil, fmt.Errorf("link flaky rate %g outside [0,1]", p)
				}
				ev.Mode, ev.Param = LinkEvtFlaky, p
			case "slow":
				if !hasParam {
					return nil, fmt.Errorf("link mode slow needs a factor (slow=F)")
				}
				f, err := strconv.ParseFloat(param, 64)
				if err != nil {
					return nil, fmt.Errorf("link slow factor %q: %w", param, err)
				}
				if !(f >= 1) || math.IsInf(f, 1) {
					return nil, fmt.Errorf("link slow factor %g must be >= 1 and finite", f)
				}
				ev.Mode, ev.Param = LinkEvtSlow, f
			default:
				return nil, fmt.Errorf("unknown link mode %q (want down, heal, flaky=P or slow=F)", mode)
			}
		}
		events = append(events, ev)
	}
	return events, nil
}

// applyLinkEvent installs one scheduled event into the torus table. The
// spec was validated at parse time, so errors here mean a programmatic
// race with torus reconfiguration and are deliberately dropped — fault
// injection must never panic the machine it is testing.
func applyLinkEvent(tor *torus.Torus, ev LinkEvent) {
	switch ev.Mode {
	case LinkEvtDown:
		_ = tor.FailLink(ev.A, ev.B)
	case LinkEvtHeal:
		_ = tor.HealLink(ev.A, ev.B)
	case LinkEvtFlaky:
		_ = tor.DegradeLink(ev.A, ev.B, ev.Param, 0)
	case LinkEvtSlow:
		_ = tor.DegradeLink(ev.A, ev.B, 0, ev.Param)
	}
}

// linkRoute is a cached fail-aware routing verdict for one (src,dst)
// pair, valid while the torus route generation matches gen.
type linkRoute struct {
	gen     uint64
	ok      bool    // a route survives the down links
	minimal bool    // it is minimal (no detour was needed)
	hops    int     // route length, for slow-delay scaling
	flaky   float64 // combined crossing-loss probability over degraded links
	slow    float64 // summed slow factors over degraded links
}

// resolveLinkRoute computes the verdict for one pair at the current
// generation: route existence plus the accumulated degraded-link
// parameters along it. Callers cache the result keyed by gen.
func resolveLinkRoute(tor *torus.Torus, src, dst int) linkRoute {
	lr := linkRoute{gen: tor.RouteGen()}
	route, minimal, ok := tor.FaultRoute(src, dst)
	if !ok {
		return lr
	}
	lr.ok, lr.minimal, lr.hops = true, minimal, len(route)
	pass := 1.0
	prev := src
	for _, to := range route {
		if f := tor.LinkFaultOf(prev, to); f.State == torus.LinkDegraded {
			pass *= 1 - f.FlakyRate
			lr.slow += f.SlowFactor
		}
		prev = to
	}
	lr.flaky = 1 - pass
	return lr
}
