package ft

import (
	"sync/atomic"
	"time"

	"blueq/internal/obs"
)

// Failure detection: every node's comm path emits a heartbeat to every
// other live node each HeartbeatInterval, on ft's own PAMI dispatch id so
// arrival processing never queues behind application messages. Each node
// keeps a per-peer last-heard timestamp and a smoothed inter-arrival time;
// a peer is suspected when its silence exceeds
// max(SuspectAfter, phiFactor × smoothed interval) — the timeout floor
// guards cold channels, the phi-style adaptive term tracks links whose
// delivery the transport is contending or delaying. Suspicion is local
// and cheap to be wrong about; a failure is confirmed only when a strict
// majority of live observers suspect the same peer. The majority rule is
// what makes fail-stop detection sound here: a killed node's own view has
// everyone else going silent simultaneously, so its (unsendable) verdict
// against the survivors can never win a vote.

// heartbeatLoop is the sender: one goroutine standing in for the per-node
// comm threads, sweeping all live source nodes each interval. Packets go
// through each source node's context 0, so they traverse the same
// transport (and the same kill switches) as application traffic.
func (mgr *Manager) heartbeatLoop() {
	defer mgr.wg.Done()
	tick := time.NewTicker(mgr.cfg.HeartbeatInterval)
	defer tick.Stop()
	client := mgr.m.PAMIClient()
	nodes := mgr.m.NumNodes()
	for {
		select {
		case <-mgr.stop:
			return
		case <-tick.C:
		}
		for src := 0; src < nodes; src++ {
			if mgr.m.NodeDead(src) {
				continue
			}
			ctx := client.Node(src).Context(0)
			for dst := 0; dst < nodes; dst++ {
				if dst == src || mgr.m.NodeDead(dst) {
					continue
				}
				if err := ctx.SendImmediate(dst, 0, heartbeatDispatch, nil, 8); err == nil {
					mgr.heartbeats.Add(1)
					if obs.On() {
						obsHeartbeat.Inc(src)
					}
				}
			}
		}
	}
}

// initDetector sizes the per-pair state and registers the heartbeat
// dispatch on every context of every node (PAMI dispatch registration is
// symmetric). The receive handler is a pair of atomic updates.
func (mgr *Manager) initDetector() {
	nodes := mgr.m.NumNodes()
	now := time.Now().UnixNano()
	mgr.lastHeard = make([][]atomic.Int64, nodes)
	mgr.interval = make([][]atomic.Int64, nodes)
	mgr.suspected = make([][]bool, nodes)
	for o := 0; o < nodes; o++ {
		mgr.lastHeard[o] = make([]atomic.Int64, nodes)
		mgr.interval[o] = make([]atomic.Int64, nodes)
		mgr.suspected[o] = make([]bool, nodes)
		for t := 0; t < nodes; t++ {
			mgr.lastHeard[o][t].Store(now)
		}
	}
	client := mgr.m.PAMIClient()
	for r := 0; r < nodes; r++ {
		observer := r
		handler := func(src int, _ any, _ int) { mgr.onHeartbeat(observer, src) }
		node := client.Node(r)
		for c := 0; c < node.ContextCount(); c++ {
			node.Context(c).RegisterDispatch(heartbeatDispatch, handler)
		}
	}
}

// onHeartbeat records an arrival at observer from src: stamps last-heard
// and folds the inter-arrival time into the smoothed estimate (EWMA,
// alpha = 1/8). The loads and stores are individually atomic; a lost
// update under contention only costs one sample of smoothing.
func (mgr *Manager) onHeartbeat(observer, src int) {
	now := time.Now().UnixNano()
	prev := mgr.lastHeard[observer][src].Swap(now)
	gap := now - prev
	if gap < 0 {
		return
	}
	ewma := mgr.interval[observer][src].Load()
	if ewma == 0 {
		ewma = gap
	} else {
		ewma += (gap - ewma) / 8
	}
	mgr.interval[observer][src].Store(ewma)
}

// monitorLoop evaluates suspicion and confirmation each heartbeat
// interval. It is the only writer of mgr.suspected. Confirmed failures
// are handed to the recovery goroutine through the queue, so detection
// keeps running while a recovery is in progress — a second failure
// landing mid-recovery is confirmed here and folded into the running pass
// (or starts the next one) instead of waiting behind it.
func (mgr *Manager) monitorLoop() {
	defer mgr.wg.Done()
	tick := time.NewTicker(mgr.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-mgr.stop:
			return
		case <-tick.C:
		}
		if dead := mgr.evaluate(); len(dead) > 0 {
			mgr.enqueueDead(dead)
		}
	}
}

// evaluate updates per-pair suspicion and returns every node whose
// failure a majority of eligible observers confirms this tick — several
// nodes can confirm in the same tick (simultaneous kills).
//
// Two rules keep the vote sound when more than one node is in trouble:
//
//   - An observer whose own view suspects every other live unconfirmed
//     peer is excluded from the electorate: uniform silence is the
//     signature of the observer's own receive path being dead (a wedged
//     or killed-but-unconfirmed node), and counting its votes would let
//     two dying nodes confirm a healthy one. If exclusion empties the
//     electorate (a 2-node machine, or no live majority — beyond what
//     majority detection can decide), every live unconfirmed node votes.
//   - The suspicion matrix is updated for all pairs first and confirmed
//     targets are collected after the full tally, so confirming node A
//     never clears or skews the evidence against node B in the same tick.
func (mgr *Manager) evaluate() []int {
	nodes := mgr.m.NumNodes()
	now := time.Now().UnixNano()
	floor := mgr.cfg.SuspectAfter.Nanoseconds()

	// Sweep 1: refresh the full suspicion matrix from this tick's clock.
	for obsr := 0; obsr < nodes; obsr++ {
		if mgr.m.NodeDead(obsr) || mgr.confirmed[obsr].Load() {
			continue
		}
		for target := 0; target < nodes; target++ {
			if target == obsr || mgr.confirmed[target].Load() {
				continue
			}
			silence := now - mgr.lastHeard[obsr][target].Load()
			threshold := floor
			if adaptive := phiFactor * mgr.interval[obsr][target].Load(); adaptive > threshold {
				threshold = adaptive
			}
			sus := silence > threshold
			if sus && !mgr.suspected[obsr][target] {
				mgr.suspicions.Add(1)
				if obs.On() {
					obsSuspicion.Inc(obsr)
				}
			}
			mgr.suspected[obsr][target] = sus
		}
	}

	// Electorate: live unconfirmed nodes that still hear someone.
	alive := func(r int) bool { return !mgr.m.NodeDead(r) && !mgr.confirmed[r].Load() }
	eligible := make([]bool, nodes)
	nEligible := 0
	for obsr := 0; obsr < nodes; obsr++ {
		if !alive(obsr) {
			continue
		}
		suspectsAll, peers := true, 0
		for t := 0; t < nodes; t++ {
			if t == obsr || !alive(t) {
				continue
			}
			peers++
			if !mgr.suspected[obsr][t] {
				suspectsAll = false
			}
		}
		if peers > 0 && !suspectsAll {
			eligible[obsr] = true
			nEligible++
		}
	}
	if nEligible == 0 {
		for r := 0; r < nodes; r++ {
			if alive(r) {
				eligible[r] = true
			}
		}
	}

	// Sweep 2: tally every unconfirmed target against the electorate.
	var confirmedNow []int
	for target := 0; target < nodes; target++ {
		if mgr.confirmed[target].Load() {
			continue
		}
		votes, observers := 0, 0
		for obsr := 0; obsr < nodes; obsr++ {
			if obsr == target || !eligible[obsr] {
				continue
			}
			observers++
			if mgr.suspected[obsr][target] {
				votes++
			}
		}
		if observers > 0 && 2*votes > observers {
			// The vote says dead; the probe layer decides whether the
			// silence is the node or the path. Fail-stopped targets clear
			// instantly (no added latency for kill injection); anything
			// else confirms only after probing concludes it is gone, and a
			// probe ack instead clears the suspicion columns via the
			// heartbeat grace reset (probe.go).
			if mgr.probeClears(target) {
				confirmedNow = append(confirmedNow, target)
			}
		}
	}
	for _, target := range confirmedNow {
		mgr.confirmed[target].Store(true)
		mgr.confirmations.Add(1)
		if obs.On() {
			obsConfirmation.Inc(target)
			// Detection latency: how long the quietest majority
			// observer had been waiting when the vote passed.
			latest := int64(0)
			for o := 0; o < nodes; o++ {
				if o != target && mgr.suspected[o][target] {
					if hb := mgr.lastHeard[o][target].Load(); hb > latest {
						latest = hb
					}
				}
			}
			if latest > 0 {
				obsDetectNS.Observe(target, now-latest)
			}
		}
	}
	return confirmedNow
}
