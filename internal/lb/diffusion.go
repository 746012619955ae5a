package lb

import (
	"math"
	"sync/atomic"
	"time"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/obs"
)

// Barrier-free neighbor diffusion (Charm++'s distributed LB family): no
// global barrier, no central planner. A gossip loop — standing in for the
// per-node comm threads, like the ft heartbeat sender — periodically
// sends each node's per-PE load vector to its ring neighbors on lb's own
// PAMI dispatch id. Each node accumulates a *local view* of its own and
// its neighbors' loads; an overloaded PE consults only that view, from
// the measurement path, and sheds its smallest useful element to the
// lightest neighbor it can see. Decisions are local, migrations are
// ordinary packed-blob moves, and imbalance dissipates hop by hop.

// gossipDispatch is lb's PAMI dispatch id. Converse owns 1-4, ft owns
// 9-10.
const gossipDispatch = 11

// gossipMsg carries one node's per-PE load vector (ns) to a neighbor.
type gossipMsg struct {
	base  int // first PE of the sending node
	loads []int64
}

// registerGossip sets up the per-node load views and the gossip dispatch
// on every context of every node. Gossip goes straight through PAMI, so
// it holds no flow-control credit: load reports keep flowing exactly when
// the data-plane windows are full, or a saturated machine could never
// rebalance its way out.
func (mgr *Manager) registerGossip() {
	nodes := mgr.m.NumNodes()
	npes := mgr.m.NumPEs()
	mgr.views = make([][]atomic.Int64, nodes)
	for r := range mgr.views {
		mgr.views[r] = make([]atomic.Int64, npes)
	}
	client := mgr.m.PAMIClient()
	for r := 0; r < nodes; r++ {
		view := mgr.views[r]
		handler := func(src int, data any, _ int) {
			gm := data.(*gossipMsg)
			for i, l := range gm.loads {
				view[gm.base+i].Store(l)
			}
			mgr.gossipRecv.Add(1)
		}
		node := client.Node(r)
		for c := 0; c < node.ContextCount(); c++ {
			node.Context(c).RegisterDispatch(gossipDispatch, handler)
		}
	}
}

// gossipLoop refreshes every node's own load entries and ships them to
// the node's ring neighbors each Period.
func (mgr *Manager) gossipLoop() {
	defer mgr.wg.Done()
	tick := time.NewTicker(mgr.cfg.Period)
	defer tick.Stop()
	client := mgr.m.PAMIClient()
	nodes := mgr.m.NumNodes()
	wpn := mgr.m.NumPEs() / nodes
	for {
		select {
		case <-mgr.stop:
			return
		case <-tick.C:
		}
		mgr.mu.Lock()
		arrays := append([]*managed(nil), mgr.arrays...)
		mgr.mu.Unlock()
		for r := 0; r < nodes; r++ {
			if mgr.m.NodeDead(r) {
				continue
			}
			base := r * wpn
			loads := make([]int64, wpn)
			for w := range loads {
				p := base + w
				var sum int64
				for _, man := range arrays {
					sum += peLoadOf(man.a, man.meter, p)
				}
				loads[w] = sum
				mgr.views[r][p].Store(sum)
			}
			if nodes == 1 {
				continue
			}
			gm := &gossipMsg{base: base, loads: loads}
			ctx := client.Node(r).Context(0)
			for _, nbr := range []int{(r + 1) % nodes, (r - 1 + nodes) % nodes} {
				if nbr == r || mgr.m.NodeDead(nbr) {
					continue
				}
				if err := ctx.SendImmediate(nbr, 0, gossipDispatch, gm, 8+8*len(loads)); err == nil {
					mgr.gossipSent.Add(1)
					if obs.On() {
						obsGossipSent.Inc(r)
					}
				}
			}
		}
	}
}

// diffusionTick is called from the measurement path after every entry
// execution; at most once per Period per PE it runs a diffusion decision.
// The throttle is a CAS on a per-PE timestamp, so the common case is two
// atomic reads.
func (mgr *Manager) diffusionTick(pe *converse.PE, _ *Meter, _ int) {
	now := nowNS()
	cell := &mgr.lastTick[pe.Id()]
	last := cell.Load()
	if now-last < mgr.cfg.Period.Nanoseconds() {
		return
	}
	if !cell.CompareAndSwap(last, now) {
		return
	}
	mgr.diffuse(pe)
}

const (
	// diffusionThreshold is the relative overload that triggers a
	// diffusion move: migrate only when this PE's load exceeds the
	// lightest neighbor's by more than this fraction.
	diffusionThreshold = 0.4
	// minLoadNS ignores PEs measuring below this: idle noise must not
	// cause migration churn.
	minLoadNS = 50_000
)

// diffuse makes one local decision on pe: if this PE's load exceeds the
// lightest visible PE — same node, or a ring-neighbor node known through
// gossip — by more than diffusionThreshold, shed the largest element that
// fits in half the gap. Moving at most half the gap can never invert the
// imbalance, which is what keeps diffusion from oscillating; one move per
// decision, because diffusion converges by many small steps, not one
// upheaval.
func (mgr *Manager) diffuse(pe *converse.PE) {
	me := pe.Id()
	r := pe.Node().Rank()
	view := mgr.views[r]
	myLoad := view[me].Load()
	if myLoad < minLoadNS {
		return
	}
	nodes := mgr.m.NumNodes()
	wpn := mgr.m.NumPEs() / nodes
	nbrNodes := []int{r}
	if nodes > 1 {
		nbrNodes = append(nbrNodes, (r+1)%nodes)
		if prev := (r - 1 + nodes) % nodes; prev != (r+1)%nodes {
			nbrNodes = append(nbrNodes, prev)
		}
	}
	dst, dstLoad := -1, int64(math.MaxInt64)
	for _, nr := range nbrNodes {
		if mgr.m.NodeDead(nr) {
			continue
		}
		for w := 0; w < wpn; w++ {
			p := nr*wpn + w
			if p == me {
				continue
			}
			if l := view[p].Load(); l < dstLoad {
				dst, dstLoad = p, l
			}
		}
	}
	if dst < 0 {
		return
	}
	if float64(myLoad) <= float64(dstLoad)*(1+diffusionThreshold)+minLoadNS {
		return
	}
	gap := myLoad - dstLoad

	mgr.mu.Lock()
	arrays := append([]*managed(nil), mgr.arrays...)
	mgr.mu.Unlock()
	for _, man := range arrays {
		best, bestLoad := -1, int64(0)
		for idx, h := range man.a.Homes() {
			if int(h) != me {
				continue
			}
			if l := man.meter.Load(idx); l > bestLoad && l <= gap/2 {
				best, bestLoad = idx, l
			}
		}
		if best < 0 {
			continue
		}
		if err := man.a.MigrateElement(pe, best, dst); err != nil {
			continue
		}
		// Update the local view immediately so the next tick does not
		// re-shed against stale numbers before gossip refreshes them.
		view[me].Add(-bestLoad)
		view[dst].Add(bestLoad)
		mgr.moves.Add(1)
		if obs.On() {
			obsDiffMove.Inc(me)
		}
		return
	}
}

// peLoadOf sums the smoothed loads of array a's elements homed on pe.
func peLoadOf(a *charm.Array, m *Meter, pe int) int64 {
	var sum int64
	for idx, h := range a.Homes() {
		if int(h) == pe {
			sum += m.Load(idx)
		}
	}
	return sum
}
