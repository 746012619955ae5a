package torus

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"blueq/internal/obs"
)

// Link-level fault state and fail-aware routing. BG/Q's network routes
// dynamically within the minimal quadrant and its control system takes
// failed or marginal ("gray") links out of service, recomputing routes
// around them; this file gives the functional torus the same capability.
// Each Torus carries a link-state table (up / degraded / down) keyed by
// its physical neighbour links. Routing consults it through FaultRoute:
// minimal dimension-order variants first, a non-minimal detour when no
// minimal route survives, and an explicit not-reachable verdict when the
// fault set partitions the pair.
//
// Everything here is off the hot path by construction: a torus with no
// link faults and no path salts answers HasLinkFaults with one atomic
// load, and Verdict caches each (src,dst) pair's route in the table,
// invalidating on the route-generation counter — a pointer load and a
// second atomic load per injected packet, shared by every transport
// stacked over the torus.

// LinkState classifies one physical torus link.
type LinkState uint8

const (
	// LinkUp is a healthy link (the zero value).
	LinkUp LinkState = iota
	// LinkDegraded marks a gray link: still routable, but packets
	// crossing it may be dropped (FlakyRate) or slowed (SlowFactor) by
	// the transport layer.
	LinkDegraded
	// LinkDown marks a dead link: the router treats it as absent.
	LinkDown
)

func (s LinkState) String() string {
	switch s {
	case LinkUp:
		return "up"
	case LinkDegraded:
		return "degraded"
	case LinkDown:
		return "down"
	}
	return fmt.Sprintf("LinkState(%d)", uint8(s))
}

// LinkFault is the fault table entry of one link. The torus owns the
// routing consequence (down links are avoided); the transports apply the
// behavioural parameters of degraded links to packets whose route crosses
// them.
type LinkFault struct {
	State LinkState
	// FlakyRate is the probability a packet crossing the link is lost
	// (applied by the faulty transport, seeded).
	FlakyRate float64
	// SlowFactor multiplies the link's serialization time (applied by the
	// contended transport, or as injected delay by faulty over inproc).
	// 0 means nominal speed.
	SlowFactor float64
}

// linkTable holds a torus's mutable fault state. It lives behind a
// pointer initialized lazily under a global registration lock so that the
// Torus struct stays trivially copyable for code that only does shape
// arithmetic.
type linkTable struct {
	mu     sync.RWMutex
	faults map[[2]int]LinkFault // canonical (lo,hi) rank pair -> fault
	salts  map[[2]int]uint32    // directed (src,dst) -> adaptive path salt
	gen    atomic.Uint64        // route generation: bumps on every change
	nFault atomic.Int32         // count of non-up links (fast-path check)

	reroutes atomic.Int64 // fault-avoiding routes handed out
	detours  atomic.Int64 // of those, non-minimal

	routes []atomic.Pointer[RouteVerdict] // src*n+dst -> cached verdict
}

var linkTablesMu sync.Mutex

// table returns the torus's link table, creating it on first use.
func (t *Torus) table() *linkTable {
	if lt := t.links.Load(); lt != nil {
		return lt
	}
	linkTablesMu.Lock()
	defer linkTablesMu.Unlock()
	if lt := t.links.Load(); lt != nil {
		return lt
	}
	n := t.Nodes()
	lt := &linkTable{
		faults: make(map[[2]int]LinkFault),
		salts:  make(map[[2]int]uint32),
		routes: make([]atomic.Pointer[RouteVerdict], n*n),
	}
	t.links.Store(lt)
	return lt
}

// linkKey canonicalizes an undirected link: physical link failure takes
// out both directions, like unseating one link module on the real torus.
func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// checkLink validates that a and b are distinct ranks joined by a
// physical torus link.
func (t *Torus) checkLink(a, b int) error {
	n := t.Nodes()
	if a < 0 || a >= n || b < 0 || b >= n {
		return fmt.Errorf("torus: link %d-%d: rank out of range [0,%d)", a, b, n)
	}
	if a == b {
		return fmt.Errorf("torus: link %d-%d: not a link (same rank)", a, b)
	}
	for _, nb := range t.Neighbors(a) {
		if nb == b {
			return nil
		}
	}
	return fmt.Errorf("torus: %d-%d is not a physical link (neighbours of %d: %v)", a, b, a, t.Neighbors(a))
}

// SetLinkFault installs the fault entry for the physical link a-b (both
// directions) and bumps the route generation so every cached Verdict
// recomputes. A LinkUp entry with zero parameters removes the link from
// the table.
func (t *Torus) SetLinkFault(a, b int, f LinkFault) error {
	if err := t.checkLink(a, b); err != nil {
		return err
	}
	lt := t.table()
	key := linkKey(a, b)
	lt.mu.Lock()
	prev, had := lt.faults[key]
	if f.State == LinkUp && f.FlakyRate == 0 && f.SlowFactor == 0 {
		delete(lt.faults, key)
	} else {
		lt.faults[key] = f
	}
	if had && prev.State != LinkUp {
		lt.nFault.Add(-1)
	}
	if f.State != LinkUp {
		lt.nFault.Add(1)
	}
	lt.mu.Unlock()
	lt.gen.Add(1)
	if obs.On() {
		obsLinkState.Set(int64(lt.nFault.Load()))
	}
	return nil
}

// FailLink marks the physical link a-b down: routes recompute around it,
// and a pair left with no surviving route is partitioned.
func (t *Torus) FailLink(a, b int) error {
	if err := t.SetLinkFault(a, b, LinkFault{State: LinkDown}); err != nil {
		return err
	}
	if obs.On() {
		obsLinkDown.Inc(a)
	}
	return nil
}

// HealLink returns the physical link a-b to service.
func (t *Torus) HealLink(a, b int) error {
	return t.SetLinkFault(a, b, LinkFault{})
}

// DegradeLink marks a-b a gray link: still routed over, but the transport
// drops crossings with probability flaky and stretches serialization by
// slow (0 keeps nominal speed).
func (t *Torus) DegradeLink(a, b int, flaky, slow float64) error {
	if !(flaky >= 0 && flaky <= 1) {
		return fmt.Errorf("torus: link %d-%d: flaky rate %g outside [0,1]", a, b, flaky)
	}
	if !(slow >= 0) {
		return fmt.Errorf("torus: link %d-%d: slow factor %g negative or NaN", a, b, slow)
	}
	if math.IsInf(slow, 1) {
		return fmt.Errorf("torus: link %d-%d: slow factor must be finite", a, b)
	}
	return t.SetLinkFault(a, b, LinkFault{State: LinkDegraded, FlakyRate: flaky, SlowFactor: slow})
}

// LinkFaultOf returns the fault entry of the link a-b (the zero LinkFault
// for a healthy or unknown link).
func (t *Torus) LinkFaultOf(a, b int) LinkFault {
	lt := t.links.Load()
	if lt == nil {
		return LinkFault{}
	}
	lt.mu.RLock()
	f := lt.faults[linkKey(a, b)]
	lt.mu.RUnlock()
	return f
}

// DownLinks returns the currently-down links as canonical rank pairs.
func (t *Torus) DownLinks() [][2]int {
	lt := t.links.Load()
	if lt == nil {
		return nil
	}
	lt.mu.RLock()
	defer lt.mu.RUnlock()
	var out [][2]int
	for k, f := range lt.faults {
		if f.State == LinkDown {
			out = append(out, k)
		}
	}
	return out
}

// HasLinkFaults reports whether any link is currently not up. One atomic
// load; the transports use it to keep the no-fault injection path free of
// table lookups.
func (t *Torus) HasLinkFaults() bool {
	lt := t.links.Load()
	return lt != nil && lt.nFault.Load() != 0
}

// RouteGen returns the route-generation counter. It bumps on every link
// state change and every path-salt bump; Verdict's cache is keyed on it,
// so a pair's route is recomputed exactly when routing inputs changed.
func (t *Torus) RouteGen() uint64 {
	lt := t.links.Load()
	if lt == nil {
		return 0
	}
	return lt.gen.Load()
}

// BumpPathSalt advances the adaptive routing salt of the directed pair
// (a,b): FaultRoute then prefers a different minimal dimension order and,
// once the rotations are exhausted, a detour off the pair's default route
// entirely. The fault-tolerance layer bumps it when probing shows a peer
// alive behind a failing path — adaptive routing around a gray link the
// fault table does not know about.
func (t *Torus) BumpPathSalt(a, b int) {
	lt := t.table()
	lt.mu.Lock()
	lt.salts[[2]int{a, b}]++
	lt.mu.Unlock()
	lt.gen.Add(1)
}

// PathSalt returns the current adaptive salt of the directed pair.
func (t *Torus) PathSalt(a, b int) uint32 {
	lt := t.links.Load()
	if lt == nil {
		return 0
	}
	lt.mu.RLock()
	s := lt.salts[[2]int{a, b}]
	lt.mu.RUnlock()
	return s
}

// ClearPathSalt resets the pair's adaptive salt (after a heal, or when
// the fault table learns the real culprit).
func (t *Torus) ClearPathSalt(a, b int) {
	lt := t.links.Load()
	if lt == nil {
		return
	}
	lt.mu.Lock()
	delete(lt.salts, [2]int{a, b})
	lt.mu.Unlock()
	lt.gen.Add(1)
}

// Reroutes returns how many fault-avoiding routes FaultRoute handed out;
// Detours counts the subset that had to go non-minimal.
func (t *Torus) Reroutes() int64 {
	lt := t.links.Load()
	if lt == nil {
		return 0
	}
	return lt.reroutes.Load()
}

// Detours returns the number of non-minimal routes handed out.
func (t *Torus) Detours() int64 {
	lt := t.links.Load()
	if lt == nil {
		return 0
	}
	return lt.detours.Load()
}

// Reachable reports whether any route from a to b survives the current
// fault set.
func (t *Torus) Reachable(a, b int) bool {
	return a == b || !t.HasLinkFaults() || t.Verdict(a, b).OK
}

// RouteVerdict is the fail-aware routing verdict of one (src,dst) pair at
// one route generation. It is shared by every caller and never mutated
// after Verdict publishes it.
type RouteVerdict struct {
	gen uint64
	// Path is the route as node ranks (excluding src, including dst).
	Path []int
	// OK is false when the down links partition the pair.
	OK bool
	// Flaky is the combined probability that a packet is lost crossing
	// the degraded links on Path.
	Flaky float64
	// Slows holds each hop's serialization factor (0 at nominal speed);
	// nil when every hop runs at nominal speed.
	Slows []float64
}

// Verdict returns the pair's fail-aware route, computed by FaultRoute at
// most once per route generation (so a reroute counts once per pair per
// generation, however many transports are stacked over the torus). A hit
// is one pointer load and a generation compare, with no lock.
func (t *Torus) Verdict(src, dst int) *RouteVerdict {
	lt := t.table()
	gen := lt.gen.Load()
	slot := &lt.routes[src*t.Nodes()+dst]
	if v := slot.Load(); v != nil && v.gen == gen {
		return v
	}
	v := &RouteVerdict{gen: gen}
	v.Path, _, v.OK = t.FaultRoute(src, dst)
	if v.OK && lt.nFault.Load() != 0 {
		pass := 1.0
		prev := src
		for i, to := range v.Path {
			if f := t.LinkFaultOf(prev, to); f.State == LinkDegraded {
				pass *= 1 - f.FlakyRate
				if f.SlowFactor > 0 {
					if v.Slows == nil {
						v.Slows = make([]float64, len(v.Path))
					}
					v.Slows[i] = f.SlowFactor
				}
			}
			prev = to
		}
		v.Flaky = 1 - pass
	}
	slot.Store(v)
	return v
}

// rankRoute is the dimension-order route from a to b as node ranks
// (excluding a, including b), visiting dimensions in the order
// rot, rot+1, ... mod Dims. All rotations are minimal; different
// rotations traverse different link sets whenever the pair differs in
// more than one dimension — the diversity the adaptive salt exploits.
func (t *Torus) rankRoute(a, b, rot int) []int {
	cur := t.CoordOf(a)
	dst := t.CoordOf(b)
	path := make([]int, 0, t.HopCount(a, b))
	for i := 0; i < Dims; i++ {
		dim := (rot + i) % Dims
		for cur[dim] != dst[dim] {
			e := t.shape[dim]
			fwd := (dst[dim] - cur[dim] + e) % e
			bwd := (cur[dim] - dst[dim] + e) % e
			if fwd <= bwd {
				cur[dim] = (cur[dim] + 1) % e
			} else {
				cur[dim] = (cur[dim] - 1 + e) % e
			}
			path = append(path, t.RankOf(cur))
		}
	}
	return path
}

// routeAvoids reports whether the route from src crosses none of the
// avoided links.
func routeAvoids(src int, route []int, avoid map[[2]int]bool) bool {
	prev := src
	for _, to := range route {
		if avoid[linkKey(prev, to)] {
			return false
		}
		prev = to
	}
	return true
}

// routeLinks collects the links of a route into the set.
func routeLinks(src int, route []int, into map[[2]int]bool) {
	prev := src
	for _, to := range route {
		into[linkKey(prev, to)] = true
		prev = to
	}
}

// bfsRoute finds a shortest route from a to b over links not in avoid
// (breadth-first over the physical neighbour graph), or nil when the
// avoided set disconnects the pair. Not minimal in the torus sense —
// this is the non-minimal detour fallback.
func (t *Torus) bfsRoute(a, b int, avoid map[[2]int]bool) []int {
	n := t.Nodes()
	prev := make([]int, n)
	for i := range prev {
		prev[i] = -1
	}
	prev[a] = a
	queue := []int{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.Neighbors(cur) {
			if prev[nb] != -1 || avoid[linkKey(cur, nb)] {
				continue
			}
			prev[nb] = cur
			if nb == b {
				var path []int
				for at := b; at != a; at = prev[at] {
					path = append(path, at)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, nb)
		}
	}
	return nil
}

// FaultRoute returns the fail-aware route from a to b as node ranks
// (excluding a, including b). The pair's candidate routes are the
// distinct minimal dimension-order rotations plus one non-minimal detour
// off the default route's links (the links a gray fault the table does
// not know about must be on); the adaptive salt indexes into that cycle,
// and candidates crossing down links are skipped. Because the salt
// CYCLES rather than escalates, a starving channel that keeps bumping
// its salt revisits every variant — including the original default —
// until one delivers and the acks stop the bumping: route selection
// self-stabilizes on whatever path actually works, with no fault-table
// entry required. ok=false means the down links partition the pair: no
// surviving route at all.
func (t *Torus) FaultRoute(a, b int) (path []int, minimal, ok bool) {
	if a == b {
		return nil, true, true
	}
	lt := t.links.Load()
	if lt == nil {
		return t.rankRoute(a, b, 0), true, true
	}
	salt := t.PathSalt(a, b)
	if lt.nFault.Load() == 0 && salt == 0 {
		return t.rankRoute(a, b, 0), true, true
	}

	down := make(map[[2]int]bool)
	lt.mu.RLock()
	for k, f := range lt.faults {
		if f.State == LinkDown {
			down[k] = true
		}
	}
	lt.mu.RUnlock()

	count := func(route []int, min bool) ([]int, bool, bool) {
		if len(down) > 0 || salt > 0 {
			lt.reroutes.Add(1)
			if !min {
				lt.detours.Add(1)
			}
			if obs.On() {
				obsReroute.Inc(a)
			}
		}
		return route, min, true
	}

	// The candidate cycle: distinct minimal rotations first (salt 0 is
	// always the default dimension-order route), then the detour. Pairs
	// differing in one dimension have a single minimal route, so their
	// cycle alternates default/detour; pairs spanning k dimensions get k
	// distinct minimal variants before the detour.
	type cand struct {
		route   []int
		minimal bool
	}
	var cands []cand
	addCand := func(route []int, min bool) {
		if route == nil {
			return
		}
		for _, c := range cands {
			if sameRoute(route, c.route) {
				return
			}
		}
		cands = append(cands, cand{route, min})
	}
	def := t.rankRoute(a, b, 0)
	addCand(def, true)
	for rot := 1; rot < Dims; rot++ {
		addCand(t.rankRoute(a, b, rot), true)
	}
	avoid := make(map[[2]int]bool, len(down)+8)
	for k := range down {
		avoid[k] = true
	}
	routeLinks(a, def, avoid)
	addCand(t.bfsRoute(a, b, avoid), false)

	start := int(salt % uint32(len(cands)))
	for i := 0; i < len(cands); i++ {
		c := cands[(start+i)%len(cands)]
		if routeAvoids(a, c.route, down) {
			return count(c.route, c.minimal)
		}
	}
	// Every candidate crosses a down link: last resort is any surviving
	// route at all.
	if route := t.bfsRoute(a, b, down); route != nil {
		return count(route, false)
	}
	return nil, false, false
}

func sameRoute(x, y []int) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
