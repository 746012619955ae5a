// Package ft is the PE-level fault-tolerance subsystem: heartbeat failure
// detection, double in-memory checkpointing, and chare recovery, in the
// Charm++ tradition (Zheng, Shi & Kalé, "FTC-Charm++: An In-Memory
// Checkpoint-Based Fault Tolerant Runtime"). Blue Gene/Q nodes checkpoint
// to a buddy node over the torus; here the same owner+buddy double copy
// travels over the transport seam, so every checkpoint survives the loss
// of any single node.
//
// The pieces, each in its own file:
//
//   - detector.go: per-node comm-thread heartbeats on a dedicated PAMI
//     dispatch id, a phi/timeout hybrid detector, and majority-vote
//     confirmation (a failed node's own view suspects everyone else, so a
//     single observer is never trusted).
//   - checkpoint.go: the coordinated checkpoint protocol over a chare
//     group — every PE packs the elements it homes into its node store,
//     ships one batch to the buddy node, and acks the leader; the epoch
//     commits when owner and buddy copies of every PE's batch exist.
//   - recovery.go: on confirmed failure, halt the dead node, wait for
//     survivor quiescence, bump the runtime epoch (stale messages drop at
//     dispatch), roll every protected element back to the committed
//     checkpoint — re-homing the dead node's elements onto survivors via
//     the migration machinery — and hand control back to the application's
//     restart hook.
//
// All of it stays off the hot path: heartbeats are a few short packets per
// interval on their own dispatch id, checkpoints run only when the
// application asks, and the detector's bookkeeping is a pair of atomics
// per node pair.
package ft

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blueq/internal/charm"
	"blueq/internal/converse"
)

// Dispatch id for heartbeat packets. Converse owns ids 1-3; ft claims its
// own so heartbeats bypass the scheduler queues entirely (they must flow
// even when every PE is blocked waiting for a dead peer).
const heartbeatDispatch = 9

// Config tunes the detector. Zero values select the documented defaults;
// checkpoints are purely application-driven.
type Config struct {
	// HeartbeatInterval is the period of node-to-node heartbeats.
	// Default 5ms.
	HeartbeatInterval time.Duration
	// SuspectAfter is the silence floor before an observer suspects a
	// peer. The effective threshold per pair is
	// max(SuspectAfter, phiFactor × smoothed inter-arrival), so a noisy
	// link raises its own bar. Default 20 × HeartbeatInterval.
	SuspectAfter time.Duration
	// ProbeTimeout is how long one probe round waits for an echo.
	// Default 4 × HeartbeatInterval.
	ProbeTimeout time.Duration
	// OnRecoveryStart is invoked (from the recovery goroutine) when a
	// recovery pass begins, with the node ranks being recovered. Tests use
	// it to land a second kill mid-recovery; applications can use it to
	// pause external I/O. Must not block.
	OnRecoveryStart func(dead []int)
	// OnUnrecoverable is invoked (on its own goroutine) when a failure
	// cannot be recovered: both copies of a protected element are gone, or
	// nodes died before any epoch committed. The default logs the error
	// and shuts the machine down — a clean report instead of a hang or a
	// garbage restore. The manager stops recovering once this fires.
	OnUnrecoverable func(err error)
}

const (
	// phiFactor scales the smoothed heartbeat inter-arrival time into the
	// adaptive part of the suspicion threshold.
	phiFactor = 12
	// probeRounds is how many path-diverse probe rounds a majority-
	// suspected (but not fail-stopped) target gets before its death is
	// confirmed; rounds past the first bump the adaptive path salts so the
	// pings travel different routes (probe.go).
	probeRounds = 2
)

func (c *Config) normalize() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 5 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 20 * c.HeartbeatInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 4 * c.HeartbeatInterval
	}
}

// Stats is a snapshot of the subsystem's counters.
type Stats struct {
	HeartbeatsSent   int64
	Suspicions       int64 // observer-pair threshold crossings
	Confirmations    int64 // majority-confirmed node failures
	Recoveries       int64 // completed rollback+restart cycles
	Checkpoints      int64 // committed epochs
	CommittedEpoch   uint64
	RestoredElements int64
	CkptCRCFails     int64 // checkpoint blobs rejected by checksum
	Unrecoverable    int64 // unrecoverable failures reported (0 or 1)
	LinkSuspects     int64 // suspicions attributed to a path, not the peer
	Partitions       int64 // targets confirmed dead by unreachability
	ProbesSent       int64 // disambiguation pings sent
}

// Manager owns fault tolerance for one runtime: it detects failed nodes,
// coordinates checkpoints of the arrays registered with Protect, and runs
// recovery. Create it after the runtime and before Runtime.Run; it starts
// its heartbeat and monitor goroutines immediately and stops them when the
// machine shuts down.
type Manager struct {
	rt  *charm.Runtime
	m   *converse.Machine
	cfg Config
	wpn int // workers (PEs) per node

	protMu     sync.Mutex
	protected  []*charm.Array
	appPack    func() []byte
	appRestore func(pe *converse.PE, blob []byte)

	// checkpoint protocol (checkpoint.go)
	grp                 *charm.Group
	eCkpt, eBuddy, eAck int
	stores              []*nodeStore
	ckptMu              sync.Mutex
	ckptSeq             uint64
	round               *ckptRound
	committed           atomic.Uint64

	// detector (detector.go)
	lastHeard [][]atomic.Int64 // [observer][target] ns of last heartbeat
	interval  [][]atomic.Int64 // smoothed inter-arrival ns per pair
	suspected [][]bool         // monitor-goroutine-private suspicion state
	confirmed []atomic.Bool
	dropped   []atomic.Bool // reliability channels to this peer abandoned

	// prober (probe.go): link/node disambiguation before confirmation
	probing   []atomic.Bool // a probe of this target is in flight
	probeDead []atomic.Bool // probing concluded the target is gone
	probeSeq  atomic.Uint64
	probeMu   sync.Mutex
	probeWait map[uint64]chan struct{} // probe id -> round completion
	kickQ     chan [2]int              // (src,dst) retransmit kicks, drained by one worker

	// recovery queue (recovery.go): the monitor confirms deaths and
	// enqueues; the recovery goroutine drains, so detection keeps running
	// while a recovery is in progress and cascading failures queue up
	// instead of being missed.
	recMu      sync.Mutex
	recPending []int         // confirmed, not yet handed to a recovery pass
	recKick    chan struct{} // capacity 1: coalesces enqueue signals
	recovering atomic.Bool   // a recovery pass is in progress (fences Checkpoint)
	unrecov    atomic.Bool
	unrecovErr atomic.Value // error

	stop    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup

	heartbeats     atomic.Int64
	suspicions     atomic.Int64
	confirmations  atomic.Int64
	recoveries     atomic.Int64
	checkpoints    atomic.Int64
	restored       atomic.Int64
	ckptCRCFails   atomic.Int64
	unrecoverables atomic.Int64
	linkSuspects   atomic.Int64
	partitions     atomic.Int64
	probesSent     atomic.Int64
}

// New attaches a fault-tolerance manager to a runtime. Call between
// charm.NewRuntime and Runtime.Run (entry registration must precede
// scheduling). The manager registers its heartbeat dispatch on every PAMI
// context, declares its coordination chare group, starts the heartbeat
// sender and failure monitor, and arranges teardown via the machine's
// shutdown hooks — the same timer discipline the reliability layer
// follows.
func New(rt *charm.Runtime, cfg Config) *Manager {
	cfg.normalize()
	m := rt.Machine()
	nodes := m.NumNodes()
	mgr := &Manager{
		rt:        rt,
		m:         m,
		cfg:       cfg,
		wpn:       m.Config().WorkersPerNode,
		stores:    make([]*nodeStore, nodes),
		confirmed: make([]atomic.Bool, nodes),
		dropped:   make([]atomic.Bool, nodes),
		probing:   make([]atomic.Bool, nodes),
		probeDead: make([]atomic.Bool, nodes),
		probeWait: make(map[uint64]chan struct{}),
		kickQ:     make(chan [2]int, 256),
		recKick:   make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	for r := range mgr.stores {
		mgr.stores[r] = newNodeStore()
	}
	mgr.initDetector()
	mgr.initProber()
	// The reliability sublayer's per-channel retry streaks are the earliest
	// gray-link signal: act on them (salt the route, kick the window)
	// without waiting for heartbeat silence.
	m.PAMIClient().SetRetryStreakObserver(mgr.onRetryStreak)
	mgr.registerGroup()
	mgr.wg.Add(4)
	go mgr.heartbeatLoop()
	go mgr.monitorLoop()
	go mgr.recoveryLoop()
	go mgr.kickWorker()
	m.OnShutdown(mgr.Stop)
	return mgr
}

// Protect registers a chare array for checkpointing. Every element must
// implement charm.Checkpointable; the first checkpoint panics otherwise.
func (mgr *Manager) Protect(a *charm.Array) {
	mgr.protMu.Lock()
	mgr.protected = append(mgr.protected, a)
	mgr.protMu.Unlock()
}

// SetAppState installs the application's global-state hooks. pack runs at
// each checkpoint from a quiescent point and returns the blob (the
// iteration cursor, a convergence bound — whatever the mainchare needs to
// resume); restore runs on a surviving PE after rollback and must restart
// the computation from that blob.
func (mgr *Manager) SetAppState(pack func() []byte, restore func(pe *converse.PE, blob []byte)) {
	mgr.protMu.Lock()
	mgr.appPack = pack
	mgr.appRestore = restore
	mgr.protMu.Unlock()
}

// appHooks snapshots the application-state hooks under the lock that
// SetAppState writes them, giving the checkpoint entries and the recovery
// goroutine a clean happens-before edge.
func (mgr *Manager) appHooks() (func() []byte, func(pe *converse.PE, blob []byte)) {
	mgr.protMu.Lock()
	defer mgr.protMu.Unlock()
	return mgr.appPack, mgr.appRestore
}

// Stats snapshots the counters.
func (mgr *Manager) Stats() Stats {
	return Stats{
		HeartbeatsSent:   mgr.heartbeats.Load(),
		Suspicions:       mgr.suspicions.Load(),
		Confirmations:    mgr.confirmations.Load(),
		Recoveries:       mgr.recoveries.Load(),
		Checkpoints:      mgr.checkpoints.Load(),
		CommittedEpoch:   mgr.committed.Load(),
		RestoredElements: mgr.restored.Load(),
		CkptCRCFails:     mgr.ckptCRCFails.Load(),
		Unrecoverable:    mgr.unrecoverables.Load(),
		LinkSuspects:     mgr.linkSuspects.Load(),
		Partitions:       mgr.partitions.Load(),
		ProbesSent:       mgr.probesSent.Load(),
	}
}

// Recovering reports whether a recovery owns (or is about to own) the
// epoch: a pass is running, or a node is confirmed dead and its pass has
// not yet dropped it. External checkpoint drivers use it to tell a benign
// Checkpoint refusal (recovery will checkpoint before resuming) from a
// real error.
func (mgr *Manager) Recovering() bool {
	if mgr.recovering.Load() {
		return true
	}
	for r := 0; r < mgr.m.NumNodes(); r++ {
		if mgr.m.NodeDead(r) && !mgr.dropped[r].Load() {
			return true
		}
	}
	return false
}

// UnrecoverableErr returns the error reported through OnUnrecoverable, or
// nil while the manager still considers the run recoverable.
func (mgr *Manager) UnrecoverableErr() error {
	if err, ok := mgr.unrecovErr.Load().(error); ok {
		return err
	}
	return nil
}

// Stop halts the heartbeat sender and failure monitor and waits for them.
// Wired to converse.Machine.Shutdown via OnShutdown; safe to call twice.
func (mgr *Manager) Stop() {
	if !mgr.stopped.CompareAndSwap(false, true) {
		return
	}
	close(mgr.stop)
	mgr.wg.Wait()
}

// KillPE programmatically fail-stops the node hosting the given PE:
// transport endpoints go silent (when the backend supports kill
// injection), the node's schedulers halt, and the failure then takes the
// normal detect → confirm → recover path. The test hook for exercising
// recovery without a faulty-transport kill schedule.
func (mgr *Manager) KillPE(pe int) {
	mgr.m.KillNode(pe / mgr.wpn)
}

// nodeOf maps a PE id to its SMP node rank.
func (mgr *Manager) nodeOf(pe int) int { return pe / mgr.wpn }

// liveNodes returns the ranks the machine still considers alive.
func (mgr *Manager) liveNodes() []int {
	live := make([]int, 0, mgr.m.NumNodes())
	for r := 0; r < mgr.m.NumNodes(); r++ {
		if !mgr.m.NodeDead(r) {
			live = append(live, r)
		}
	}
	return live
}

// leaderPE is the lowest PE on the lowest live node: the anchor for
// checkpoint acks and the restart hook. PE 0 until its node dies.
func (mgr *Manager) leaderPE() int {
	for r := 0; r < mgr.m.NumNodes(); r++ {
		if !mgr.m.NodeDead(r) {
			return r * mgr.wpn
		}
	}
	return 0
}

// buddyOf returns the next live node after r in ring order — the node
// holding the second copy of r's checkpoint batches.
func (mgr *Manager) buddyOf(r int, live []int) (int, error) {
	for i, n := range live {
		if n == r {
			return live[(i+1)%len(live)], nil
		}
	}
	return 0, fmt.Errorf("ft: node %d not in live set %v", r, live)
}

// protectedArrays snapshots the registration list for iteration.
func (mgr *Manager) protectedArrays() []*charm.Array {
	mgr.protMu.Lock()
	defer mgr.protMu.Unlock()
	return append([]*charm.Array(nil), mgr.protected...)
}
