// Package lb is the measurement-based dynamic load balancer: live
// per-element load measurement, AtSync-style LB barriers running
// centralized strategies (GreedyLB/RefineLB behind one Strategy
// interface), and a barrier-free distributed neighbor-diffusion mode —
// all driving real chare migration over the message path
// (charm.MigrateElement). This is the runtime mechanic the paper's
// NAMD evaluation leans on: migratable objects re-homed from measured
// load instead of static placement.
//
// Layering mirrors internal/ft: the manager sits above the charm runtime,
// is attached between charm.NewRuntime and Runtime.Run, owns one chare
// group for its migration commands, and exchanges its control-plane load
// gossip on a dedicated PAMI dispatch id, which holds no flow-control
// credit — decisions must keep flowing when the data plane is
// saturated, which is exactly when rebalancing matters. Migration blobs
// themselves are ordinary charm messages: windowed, sequenced, dedup'd.
package lb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/obs"
)

// Config tunes the manager.
type Config struct {
	// Strategy runs at AtSync barriers (and RunCentral calls). Defaults
	// to Greedy.
	Strategy Strategy
	// Diffusion arms the barrier-free neighbor diffusion: a gossip loop
	// exchanges per-PE loads between ring-neighbor nodes, and overloaded
	// PEs shed elements to lighter neighbors from the measurement path,
	// no barrier anywhere.
	Diffusion bool
	// Period is the gossip/decision cadence (default 2ms).
	Period time.Duration
}

func (c *Config) normalize() {
	if c.Strategy == nil {
		c.Strategy = Greedy{}
	}
	if c.Period <= 0 {
		c.Period = 2 * time.Millisecond
	}
}

// migrateCmd asks an element's home PE to migrate it (the home PE is the
// only place MigrateElement may run).
type migrateCmd struct {
	array int
	idx   int
	dst   int
}

// managed is one array under load balancing.
type managed struct {
	a     *charm.Array
	meter *Meter
	// atsync counts elements that reached the barrier; the last arrival
	// runs the strategy.
	atsync atomic.Int32
	// resumeEntry, when >= 0, is broadcast to every element after the
	// barrier's LB pass (Charm++'s ResumeFromSync).
	resumeEntry int
}

// Result reports one centralized LB pass.
type Result struct {
	// Moves is the number of migration commands issued (each becomes one
	// real packed-blob migration unless the plan went stale first).
	Moves int
	// MaxLoad and AvgLoad are the planned post-balance per-PE loads, in
	// measured nanoseconds.
	MaxLoad, AvgLoad float64
}

// Manager drives measurement, barriers, diffusion and migration for the
// arrays it manages.
type Manager struct {
	rt  *charm.Runtime
	m   *converse.Machine
	cfg Config

	grp      *charm.Group
	eMigrate int

	mu     sync.Mutex
	arrays []*managed

	// views[node][pe] is node's local knowledge of every PE's smoothed
	// load in ns: a node's own entries are refreshed by the gossip loop,
	// its neighbors' entries arrive as gossip messages. Diffusion
	// decisions on a PE read only that PE's node's view — the distributed
	// part of the strategy.
	views [][]atomic.Int64

	// lastTick[pe] throttles diffusion decisions to one per Period per PE.
	lastTick []atomic.Int64

	stop    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup

	rounds     atomic.Int64
	moves      atomic.Int64
	staleCmds  atomic.Int64
	gossipSent atomic.Int64
	gossipRecv atomic.Int64

	// cmdsOut counts migrate commands issued but not yet processed at the
	// home PE. A command is a group message: over a lossy transport its
	// delivery can trail the send by a retransmit interval, and a home
	// flip landing inside a checkpoint round would leave the element in
	// no PE's batch — an epoch that silently commits without it.
	// SettleMigrations therefore waits for this to drain before the blob
	// counter, and a recovery zeroes it (the epoch fence drops the
	// commands themselves).
	cmdsOut atomic.Int64
}

// Attach builds a manager over the runtime. Call between charm.NewRuntime
// and Runtime.Run — the migration-command group and the gossip dispatch
// must be registered before scheduling starts. Arrays enter management
// via Manage before Run.
func Attach(rt *charm.Runtime, cfg Config) *Manager {
	cfg.normalize()
	m := rt.Machine()
	npes := m.NumPEs()
	mgr := &Manager{
		rt:       rt,
		m:        m,
		cfg:      cfg,
		lastTick: make([]atomic.Int64, npes),
		stop:     make(chan struct{}),
	}
	mgr.grp = rt.NewGroup("lb", func(pe int) charm.Element { return struct{}{} })
	mgr.eMigrate = mgr.grp.Entry(func(pe *converse.PE, _ charm.Element, p any) {
		mgr.onMigrateCmd(pe, p.(*migrateCmd))
	})
	mgr.registerGossip()
	// The epoch fence drops in-flight migrate commands when a recovery
	// rolls the runtime back; zero the outstanding count with them so a
	// post-recovery SettleMigrations does not wait on fenced-off commands.
	rt.OnRecovery(func() { mgr.cmdsOut.Store(0) })
	if cfg.Diffusion {
		mgr.wg.Add(1)
		go mgr.gossipLoop()
	}
	m.OnShutdown(mgr.Stop)
	return mgr
}

// Manage registers an array: a Meter is attached so deliver feeds it
// wall-clock execution times, and the array joins every LB pass. Elements
// must implement charm.Checkpointable to actually move. resumeEntry is
// the entry broadcast to every element after an AtSync barrier completes
// (pass a negative value when the application resumes itself, e.g. from a
// reduction). Call before Run.
func (mgr *Manager) Manage(a *charm.Array, resumeEntry int) *Meter {
	mt := NewMeter(a.Len(), mgr)
	a.SetLoadMeter(mt)
	mgr.mu.Lock()
	mgr.arrays = append(mgr.arrays, &managed{a: a, meter: mt, resumeEntry: resumeEntry})
	mgr.mu.Unlock()
	return mt
}

// AtSync is the barrier: every element of the array calls it (from its
// home PE, inside an entry method) when it reaches the sync point. The
// last arrival runs the centralized strategy, issues migrations, and —
// when the array registered a resume entry — broadcasts ResumeFromSync.
// Migrations complete asynchronously; messages sent to moving elements
// forward or park, so resuming immediately is safe.
func (mgr *Manager) AtSync(pe *converse.PE, a *charm.Array, idx int) {
	man := mgr.managedFor(a)
	if man == nil {
		panic(fmt.Sprintf("lb: AtSync on unmanaged array %q", a.Name()))
	}
	if obs.On() {
		obsAtSync.Inc(pe.Id())
	}
	if int(man.atsync.Add(1)) < a.Len() {
		return
	}
	man.atsync.Store(0)
	mgr.RunCentral(pe)
	if man.resumeEntry >= 0 {
		if err := a.Broadcast(pe, man.resumeEntry, nil, 16); err != nil {
			panic(fmt.Sprintf("lb: ResumeFromSync broadcast: %v", err))
		}
	}
}

// RunCentral runs the configured centralized strategy over every managed
// array right now, from the calling PE (an entry-method context):
// snapshot measured loads, plan, and send one migration command to the
// home PE of every element the plan moves. The measurement window resets
// — the next pass sees post-balance load. Call at a barrier the
// application already has (a reduction boundary is the idiomatic place,
// standing in for Charm++'s AtSync).
//
// Planning runs over live PEs only: strategies see a compacted PE space
// with dead nodes removed, so a pass after an ft recovery never migrates
// an element onto (or commands one from) a node the machine has declared
// dead. With every node alive the compaction is the identity, preserving
// the deterministic placements E19's bitwise-identity runs rely on.
func (mgr *Manager) RunCentral(pe *converse.PE) Result {
	mgr.mu.Lock()
	arrays := append([]*managed(nil), mgr.arrays...)
	mgr.mu.Unlock()
	res := Result{}
	live := mgr.livePEs()
	if len(live) == 0 {
		return res
	}
	slot := make(map[int]int, len(live))
	for i, p := range live {
		slot[p] = i
	}
	perPE := make([]float64, len(live))
	for _, man := range arrays {
		loads := man.meter.Snapshot(nil)
		home := man.a.Homes()
		chome := make([]int32, len(home))
		for i, h := range home {
			if s, ok := slot[int(h)]; ok {
				chome[i] = int32(s)
			}
		}
		plan := mgr.cfg.Strategy.Plan(loads, chome, len(live))
		for idx, s := range plan {
			perPE[s] += loads[idx]
			dst := live[s]
			if dst == int(home[idx]) {
				continue
			}
			if _, ok := slot[int(home[idx])]; !ok {
				// The element's home died mid-window; recovery re-homes
				// it, and the next pass will see it wherever it lands.
				continue
			}
			cmd := &migrateCmd{array: mgr.arrayID(man), idx: idx, dst: dst}
			mgr.cmdsOut.Add(1)
			if err := mgr.grp.Send(pe, int(home[idx]), mgr.eMigrate, cmd, 24); err != nil {
				panic(fmt.Sprintf("lb: migrate command: %v", err))
			}
			res.Moves++
		}
		man.meter.Reset()
	}
	for _, l := range perPE {
		res.AvgLoad += l
		if l > res.MaxLoad {
			res.MaxLoad = l
		}
	}
	res.AvgLoad /= float64(len(live))
	mgr.rounds.Add(1)
	mgr.moves.Add(int64(res.Moves))
	if obs.On() {
		obsRounds.Inc(pe.Id())
		obsPlanned.Add(pe.Id(), int64(res.Moves))
	}
	return res
}

// onMigrateCmd runs on (what the plan believed to be) the element's home
// PE and performs the migration. A command gone stale — the element moved
// since the plan was computed, or the destination's node has died — is
// dropped; the next measurement window will see the element wherever it
// lives now. The dead-destination check matters beyond wasted work:
// flipping an element's home toward a dead PE would make the next
// checkpoint round skip it on every live PE, committing an epoch that
// silently lacks the element.
func (mgr *Manager) onMigrateCmd(pe *converse.PE, cmd *migrateCmd) {
	defer mgr.cmdsOut.Add(-1)
	mgr.mu.Lock()
	man := mgr.arrays[cmd.array]
	mgr.mu.Unlock()
	wpn := mgr.m.NumPEs() / mgr.m.NumNodes()
	if man.a.HomePE(cmd.idx) != pe.Id() || mgr.m.NodeDead(cmd.dst/wpn) {
		mgr.staleCmds.Add(1)
		if obs.On() {
			obsStaleCmd.Inc(pe.Id())
		}
		return
	}
	if err := man.a.MigrateElement(pe, cmd.idx, cmd.dst); err != nil {
		mgr.staleCmds.Add(1)
		if obs.On() {
			obsStaleCmd.Inc(pe.Id())
		}
	}
}

// SettleMigrations blocks until every issued migrate command has been
// processed at its home PE and no element blob is in flight (or the
// timeout passes). Checkpoints need a settled home map: the ft layer
// packs elements by walking homes, and a blob between PEs exists only on
// the wire. Waiting on the blob counter alone is not enough — over a
// lossy transport a dropped migrate command redelivers a retransmit
// interval later, and a home flip landing inside the checkpoint round
// would commit an epoch missing the element.
func (mgr *Manager) SettleMigrations(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for mgr.cmdsOut.Load() != 0 || mgr.rt.MigrationsInFlight() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("lb: %d commands outstanding, %d migrations still in flight after %v",
				mgr.cmdsOut.Load(), mgr.rt.MigrationsInFlight(), timeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// Rounds returns how many centralized LB passes ran.
func (mgr *Manager) Rounds() int64 { return mgr.rounds.Load() }

// Moves returns how many migration commands all passes (central and
// diffusion) issued.
func (mgr *Manager) Moves() int64 { return mgr.moves.Load() }

// Stop halts the gossip loop. Wired to Machine.Shutdown via OnShutdown;
// safe to call twice.
func (mgr *Manager) Stop() {
	if !mgr.stopped.CompareAndSwap(false, true) {
		return
	}
	close(mgr.stop)
	mgr.wg.Wait()
}

// livePEs returns the PE ids whose nodes the machine still considers
// alive, in ascending order.
func (mgr *Manager) livePEs() []int {
	npes := mgr.m.NumPEs()
	wpn := npes / mgr.m.NumNodes()
	live := make([]int, 0, npes)
	for p := 0; p < npes; p++ {
		if !mgr.m.NodeDead(p / wpn) {
			live = append(live, p)
		}
	}
	return live
}

func (mgr *Manager) managedFor(a *charm.Array) *managed {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	for _, man := range mgr.arrays {
		if man.a == a {
			return man
		}
	}
	return nil
}

func (mgr *Manager) arrayID(man *managed) int {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	for i, m := range mgr.arrays {
		if m == man {
			return i
		}
	}
	panic("lb: unmanaged array")
}
