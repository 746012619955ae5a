package ft

import (
	"time"

	"blueq/internal/obs"
)

// Link/node disambiguation. Heartbeat silence has two causes that demand
// opposite responses: a dead node (checkpoint rollback — expensive, loses
// progress) and a dead or gray link starving an alive node's heartbeats
// (reroute — cheap, loses nothing). The majority vote alone cannot tell
// them apart when the failed links sit between the target and most
// observers, so a majority verdict against a node the transport has NOT
// fail-stopped is treated as provisional: the manager probes the target
// over path-diverse routes first, and only a target that stays silent
// through every round — or that the link table proves fully partitioned —
// is confirmed dead.
//
// Probe rounds escalate route diversity: round 0 pings from several
// spread-out live nodes (different sources traverse different links);
// later rounds additionally bump the adaptive path salts between each
// prober and the target, steering FaultRoute onto rotated minimal orders
// and, for adjacent pairs, off the direct link entirely. An alive target
// answers some round; the manager then reroutes around the suspect path
// (salts stay bumped), kicks the survivors' retransmission windows so
// in-flight traffic drains over the new routes, and resets the target's
// heartbeat grace — zero restarts. A fully partitioned target is
// indistinguishable from a dead one at every layer above the wire, so it
// takes the normal confirm → recover path.

// Dispatch id for probe ping/echo packets; like heartbeats they bypass
// the scheduler queues and flow-control credits.
const probeDispatch = 10

// probePing asks the target to echo; probeEcho is the reply. In-process
// payloads, same as heartbeats.
type probePing struct {
	id     uint64
	origin int
}

type probeEcho struct {
	id uint64
}

// initProber registers the probe dispatch on every context of every node:
// pings are answered from the receiving node's context, echoes complete
// the waiting probe round.
func (mgr *Manager) initProber() {
	nodes := mgr.m.NumNodes()
	client := mgr.m.PAMIClient()
	for r := 0; r < nodes; r++ {
		responder := r
		handler := func(src int, data any, _ int) {
			switch p := data.(type) {
			case probePing:
				_ = client.Node(responder).Context(0).SendImmediate(
					p.origin, 0, probeDispatch, probeEcho{id: p.id}, 8)
			case probeEcho:
				mgr.onProbeEcho(p.id)
			}
		}
		node := client.Node(r)
		for c := 0; c < node.ContextCount(); c++ {
			node.Context(c).RegisterDispatch(probeDispatch, handler)
		}
	}
}

// onProbeEcho completes the round waiting on the echo's probe id.
func (mgr *Manager) onProbeEcho(id uint64) {
	mgr.probeMu.Lock()
	ch := mgr.probeWait[id]
	mgr.probeMu.Unlock()
	if ch != nil {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// armProbe allocates n probe ids all completing the same channel.
func (mgr *Manager) armProbe(n int) (chan struct{}, []uint64) {
	ch := make(chan struct{}, 1)
	ids := make([]uint64, n)
	mgr.probeMu.Lock()
	for i := range ids {
		ids[i] = mgr.probeSeq.Add(1)
		mgr.probeWait[ids[i]] = ch
	}
	mgr.probeMu.Unlock()
	return ch, ids
}

// disarmProbe forgets the round's ids; a straggler echo finds no channel.
func (mgr *Manager) disarmProbe(ids []uint64) {
	mgr.probeMu.Lock()
	for _, id := range ids {
		delete(mgr.probeWait, id)
	}
	mgr.probeMu.Unlock()
}

// probeClears gates majority confirmation of a target: true means the
// verdict may proceed. Fail-stopped nodes (the transport's kill switch has
// already silenced them) and targets a finished probe declared dead pass
// immediately — kill-injection detection latency is untouched by the probe
// machinery. Anything else starts one asynchronous probe and defers the
// verdict; the monitor re-tallies every tick, so the vote lands on the
// first tick after the probe concludes.
func (mgr *Manager) probeClears(target int) bool {
	if mgr.m.NodeDead(target) || mgr.probeDead[target].Load() {
		return true
	}
	if mgr.probing[target].CompareAndSwap(false, true) {
		// Launched from the monitor goroutine, whose wg slot is still held,
		// so the Add can never race a completed Stop.
		mgr.wg.Add(1)
		go func() {
			defer mgr.wg.Done()
			mgr.probeTarget(target)
		}()
	}
	return false
}

// probeSources picks up to three live probers spread across the rank
// space (first, middle, last of the live set), excluding the target:
// distinct sources reach the target over distinct link sets, which is the
// cheap half of path diversity.
func (mgr *Manager) probeSources(target int) []int {
	var live []int
	for _, r := range mgr.liveNodes() {
		if r != target {
			live = append(live, r)
		}
	}
	if len(live) <= 3 {
		return live
	}
	return []int{live[0], live[len(live)/2], live[len(live)-1]}
}

// probeTarget runs the full disambiguation for one suspect and publishes
// the verdict: probeDead[target] set (node or partition — confirmation
// proceeds) or exoneration (suspicion was a path problem; rerouted, grace
// reset, probing flag cleared so a relapse probes again).
func (mgr *Manager) probeTarget(target int) {
	tor := mgr.m.Torus()
	client := mgr.m.PAMIClient()

	// Partition fast path: if the link table already proves no live node
	// can reach the target, probing would only wait out timeouts the
	// router has pre-computed. The target may well be running, but a node
	// no survivor can exchange a packet with is — to this machine — dead.
	partitioned := func() bool {
		if !tor.HasLinkFaults() {
			return false
		}
		for _, src := range mgr.probeSources(target) {
			if tor.Reachable(src, target) {
				return false
			}
		}
		return true
	}
	if partitioned() {
		mgr.partitions.Add(1)
		if obs.On() {
			obsPartition.Inc(target)
		}
		mgr.probeDead[target].Store(true)
		return
	}

	for round := 0; round < probeRounds; round++ {
		select {
		case <-mgr.stop:
			mgr.probing[target].Store(false)
			return
		default:
		}
		srcs := mgr.probeSources(target)
		if len(srcs) == 0 {
			break // no one left to probe from; let the vote stand
		}
		if round > 0 {
			// Escalate diversity: salt every prober↔target pair so this
			// round's pings travel rotated or detoured routes, and kick the
			// retransmission windows onto them.
			for _, src := range srcs {
				tor.BumpPathSalt(src, target)
				tor.BumpPathSalt(target, src)
				client.Node(src).KickRetransmit(target)
			}
		}
		ch, ids := mgr.armProbe(len(srcs))
		for i, src := range srcs {
			if err := client.Node(src).Context(0).SendImmediate(
				target, 0, probeDispatch, probePing{id: ids[i], origin: src}, 8); err == nil {
				mgr.probesSent.Add(1)
				if obs.On() {
					obsProbe.Inc(src)
				}
			}
		}
		alive := false
		select {
		case <-ch:
			alive = true
		case <-time.After(mgr.cfg.ProbeTimeout):
		case <-mgr.stop:
			mgr.disarmProbe(ids)
			mgr.probing[target].Store(false)
			return
		}
		mgr.disarmProbe(ids)
		if alive {
			mgr.exonerate(target)
			mgr.probing[target].Store(false)
			return
		}
		if mgr.m.NodeDead(target) {
			break // fail-stopped while we probed; confirm without more rounds
		}
	}
	mgr.probeDead[target].Store(true)
}

// exonerate handles a probe ack from a suspect: the node is alive behind a
// failing path. Charge a link suspicion, reset every observer's heartbeat
// grace for the target (the silence was the path's fault), and kick every
// survivor's retransmission window toward the target so application
// traffic drains over whatever routes the probe rounds salted in.
func (mgr *Manager) exonerate(target int) {
	mgr.linkSuspects.Add(1)
	if obs.On() {
		obsLinkSuspect.Inc(target)
	}
	now := time.Now().UnixNano()
	client := mgr.m.PAMIClient()
	for r := 0; r < mgr.m.NumNodes(); r++ {
		if r == target || mgr.m.NodeDead(r) {
			continue
		}
		mgr.lastHeard[r][target].Store(now)
		mgr.lastHeard[target][r].Store(now)
		client.Node(r).KickRetransmit(target)
	}
}

// onRetryStreak is the reliability sublayer's link-health signal (wired
// through pami.Client.SetRetryStreakObserver): the (src,dst) channel has
// retransmitted RetryStreakThreshold consecutive rounds without an ack.
// Long before heartbeat silence crosses the suspicion threshold, salt the
// pair's route so the next retransmission tries a different path. The kick
// is handed to the single kickWorker — the observer contract forbids
// calling back into the retry machinery synchronously, and a goroutine per
// event would pile up without bound on a channel that stays dark (every
// retry round fires another streak).
func (mgr *Manager) onRetryStreak(src, dst, streak int) {
	if mgr.stopped.Load() || mgr.m.NodeDead(dst) || mgr.confirmed[dst].Load() {
		return
	}
	mgr.linkSuspects.Add(1)
	if obs.On() {
		obsLinkSuspect.Inc(src)
	}
	tor := mgr.m.Torus()
	tor.BumpPathSalt(src, dst)
	tor.BumpPathSalt(dst, src)
	select {
	case mgr.kickQ <- [2]int{src, dst}:
	default:
		// Queue full: drop the kick. The channel's own retry timer keeps
		// firing regardless; the kick only shortcuts the backoff.
	}
}

// kickWorker serializes retransmission kicks requested by the streak
// observer. One worker bounds the reentry rate into the retry machinery no
// matter how fast streak events arrive.
func (mgr *Manager) kickWorker() {
	defer mgr.wg.Done()
	client := mgr.m.PAMIClient()
	for {
		select {
		case <-mgr.stop:
			return
		case k := <-mgr.kickQ:
			if !mgr.m.NodeDead(k[1]) && !mgr.confirmed[k[1]].Load() {
				client.Node(k[0]).KickRetransmit(k[1])
			}
		}
	}
}
