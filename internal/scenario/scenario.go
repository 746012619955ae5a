// Package scenario is the one driver behind every "runtime + workload +
// fault schedule + verdict" run in the repo, and its table tests are the
// one chaos front door. The E14–E19 tables (cmd/experiments), the recovery
// tests and the chaos rows (TestFloodVerdicts, TestFFTUnderFaults,
// TestMDUnderFaults, TestImbalanceRotating; the test flag -seeds=N replays
// each over seeds 1..N) describe a run as a config plus a Faults schedule
// and get the outcome back as a Result; what they print or assert is
// theirs.
//
// Three workloads run under the harness: FFT (the iterated 3D FFT under
// ft), MD (the mini-NAMD step) and Imbalance (the migratable iter/sum array
// under lb, optionally under ft). Nothing here exits the process or fails a
// test: every failure — including a wedged run, which the always-armed
// watchdog turns into ErrWedged — is a returned error, beside a Result
// filled in as far as the run got. A run with flow control armed carries
// its sampled Residency, whose Bounded method is the bounded-memory
// verdict.
//
// PingPong is the one ping-pong driver outside bench/: the root Fig 5
// benchmarks and their 0-allocs test, cmd/obsdump and cmd/experiments all
// bounce through it. Flood is the one flood driver: the flood chaos rows
// and cmd/experiments' E15 saturation sweep and E16 / E17 rate tables.
package scenario

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/ft"
	"blueq/internal/md"
	"blueq/internal/transport"
)

// ErrWedged is returned (wrapped) when a run outlives its watchdog.
var ErrWedged = errors.New("scenario: run wedged")

// Faults is the schedule a run is subjected to; the zero value injects
// nothing. It fires once: FFT fires it right after iteration AtIter
// launches, Imbalance right after its first LB pass has issued its migrate
// commands (so kills land with element blobs on the wire).
type Faults struct {
	AtIter int // 1-based FFT iteration whose launch fires the schedule
	// Kill[k] is fail-stopped k×Spread after the schedule fires (all
	// together when Spread is zero). Cascade[j] is killed from inside the
	// first recovery (ft.Config.OnRecoveryStart), (j+1)×Spread after it
	// begins — mid-recovery itself when Spread is zero. Both list PEs.
	Kill, Cascade []int
	Spread        time.Duration
	// Flaps physical links of the 4-node cell are failed one at a time,
	// held down for Hold, then healed before the next one fails.
	Flaps int
	Hold  time.Duration
	// Pre runs before the machine starts (pre-existing faults);
	// Mid runs when the schedule fires, before the kills. mgr is nil in a
	// run without fault tolerance.
	Pre, Mid func(rt *charm.Runtime, mgr *ft.Manager)
}

// cellLinks are the 4-node cell's physical links in flap order; they form
// the cycle 0-1-3-2-0, so one dead wire never partitions the cell.
var cellLinks = [][2]int{{0, 1}, {1, 3}, {2, 3}, {0, 2}}

// Result is what a run produced. Fields a workload does not produce stay
// zero (Grids outside FFT, Atoms outside MD; States, Moves and Phase
// outside Imbalance; Stats without ft; Residency without flow control).
type Result struct {
	Grids  [][]complex128 // FFT: final Z-phase grid of every PE
	Atoms  []md.Vec3      // MD: final position of every atom
	States [][2]uint64    // Imbalance: final (iterations, sum) per element
	Stats  ft.Stats
	Residency
	// Recover is the time from the schedule firing to the application's
	// first restart (zero: never restarted); Replayed is how many FFT
	// iterations that restart re-executed.
	Elapsed, Recover time.Duration
	Replayed         int
	Reroutes         int64         // routes recomputed around a down link...
	Detours          int64         // ...of which non-minimal
	WireCRCFails     int64         // packets the wire CRC rejected
	Moves            int64         // Imbalance: migrate commands issued
	Phase            time.Duration // Imbalance: first barrier → finish
}

// SameBits reports the first place got differs from ref: a PE count or
// grid length mismatch, the first differing grid cell, atom position or
// element state. nil means bitwise identical.
func SameBits(ref, got Result) error {
	if len(got.Grids) != len(ref.Grids) {
		return fmt.Errorf("%d PE grids vs reference %d", len(got.Grids), len(ref.Grids))
	}
	for pe := range ref.Grids {
		if len(got.Grids[pe]) != len(ref.Grids[pe]) {
			return fmt.Errorf("PE %d grid length %d vs reference %d", pe, len(got.Grids[pe]), len(ref.Grids[pe]))
		}
		for i, want := range ref.Grids[pe] {
			if got.Grids[pe][i] != want {
				return fmt.Errorf("PE %d grid[%d] = %v, reference %v: not bitwise identical", pe, i, got.Grids[pe][i], want)
			}
		}
	}
	if len(got.Atoms) != len(ref.Atoms) {
		return fmt.Errorf("%d atoms vs reference %d", len(got.Atoms), len(ref.Atoms))
	}
	for i, want := range ref.Atoms {
		if got.Atoms[i] != want {
			return fmt.Errorf("atom %d at %v, reference %v: not bitwise identical", i, got.Atoms[i], want)
		}
	}
	if len(got.States) != len(ref.States) {
		return fmt.Errorf("%d element states vs reference %d", len(got.States), len(ref.States))
	}
	for idx, want := range ref.States {
		if got.States[idx] != want {
			return fmt.Errorf("element %d (iterations, sum) = %v, reference %v: lost or duplicated work", idx, got.States[idx], want)
		}
	}
	return nil
}

// Reference vets a fault-free run for use as the bitwise reference, as in
// Reference(FFT(cfg)): a run that itself detected or recovered from a
// failure proves nothing about the run compared against it.
func Reference(res Result, err error) (Result, error) {
	if err != nil {
		return res, fmt.Errorf("reference run: %w", err)
	}
	if res.Stats.Recoveries != 0 || res.Stats.Confirmations != 0 {
		return res, fmt.Errorf("reference run saw failures: %+v", res.Stats)
	}
	return res, nil
}

// harness is what the workloads share: the runtime under test, the
// first error any goroutine reported, the watchdog and the fault injector.
type harness struct {
	rt  *charm.Runtime
	mgr *ft.Manager // nil in a run without fault tolerance
	tr  transport.Transport
	f   Faults
	err atomic.Pointer[error]

	fired, cascaded sync.Once
	firedNS         atomic.Int64   // when the schedule fired
	recoverNS       atomic.Int64   // schedule fired → first restart
	over            atomic.Bool    // run finished: late kill timers stand down
	wg              sync.WaitGroup // flapper and checkpoint continuations
}

// newHarness builds the transport (from spec; "" is the default in-process
// network) and the runtime. run closes the transport.
func newHarness(spec string, conv converse.Config, f Faults) (*harness, error) {
	tr, err := transport.New(spec, conv.Nodes, conv.WorkersPerNode)
	if err != nil {
		return nil, err
	}
	conv.Transport = tr
	rt, err := charm.NewRuntime(conv)
	if err != nil {
		tr.Close()
		return nil, err
	}
	return &harness{rt: rt, tr: tr, f: f}, nil
}

// detector installs the harness's recovery hooks on an ft config: the
// cascade kills, and an unrecoverable verdict ending the run cleanly (run
// reports it) instead of wedging into the watchdog.
func (h *harness) detector(cfg ft.Config) ft.Config {
	cfg.OnRecoveryStart = func([]int) {
		h.cascaded.Do(func() {
			for j, pe := range h.f.Cascade {
				h.killAfter(time.Duration(j+1)*h.f.Spread, pe)
			}
		})
	}
	cfg.OnUnrecoverable = func(error) { h.rt.Shutdown() }
	return cfg
}

// fail records the first error and ends the run. Restart hooks and cascade
// kills run on ft's recovery goroutine, which Shutdown joins, so the
// shutdown is never issued inline.
func (h *harness) fail(err error) {
	h.err.CompareAndSwap(nil, &err)
	go h.rt.Shutdown()
}

// checkpoint runs one coordinated checkpoint round. This is the one place
// that decides which refusals are benign: ft.ErrRecovering means a recovery
// owns the epoch, and its restart hook re-drives the run.
func (h *harness) checkpoint(pe *converse.PE, then func(pe *converse.PE)) error {
	if err := h.mgr.Checkpoint(pe, then); !errors.Is(err, ft.ErrRecovering) {
		return err
	}
	return nil
}

// killAfter fail-stops the node hosting pe after d (now when d is zero).
func (h *harness) killAfter(d time.Duration, pe int) {
	m := h.rt.Machine()
	node := pe / m.Config().WorkersPerNode
	if d == 0 {
		m.KillNode(node)
		return
	}
	time.AfterFunc(d, func() {
		if !h.over.Load() {
			m.KillNode(node)
		}
	})
}

// fire injects the schedule; only the first call does anything.
func (h *harness) fire() {
	h.fired.Do(func() {
		h.firedNS.Store(time.Now().UnixNano())
		if h.f.Mid != nil {
			h.f.Mid(h.rt, h.mgr)
		}
		for k, pe := range h.f.Kill {
			h.killAfter(time.Duration(k)*h.f.Spread, pe)
		}
		if h.f.Flaps > 0 {
			h.wg.Add(1)
			go h.flap()
		}
	})
}

// flap runs the whole link-flap schedule, even past the end of a short
// run: a run that comes back clean flapped every link it was asked to.
func (h *harness) flap() {
	defer h.wg.Done()
	m := h.rt.Machine()
	for k := 0; k < h.f.Flaps; k++ {
		l := cellLinks[k%len(cellLinks)]
		err := m.Torus().FailLink(l[0], l[1])
		if err == nil {
			time.Sleep(h.f.Hold)
			err = m.Torus().HealLink(l[0], l[1])
		}
		if err != nil {
			h.fail(fmt.Errorf("link flap %d: %w", k, err))
			return
		}
	}
}

// restarted stamps the first application restart after the schedule fired.
func (h *harness) restarted() {
	if at := h.firedNS.Load(); at != 0 {
		h.recoverNS.CompareAndSwap(0, time.Now().UnixNano()-at)
	}
}

// armWatchdog hands fail an ErrWedged once timeout (default 120 s) passes;
// the caller stops the returned timer when its run finishes.
func armWatchdog(timeout time.Duration, fail func(error)) *time.Timer {
	if timeout <= 0 {
		timeout = 120 * time.Second
	}
	return time.AfterFunc(timeout, func() { fail(fmt.Errorf("%w: no finish within %v", ErrWedged, timeout)) })
}

// run arms the watchdog, runs Pre, samples residency when flow control is
// armed, runs drive until the machine shuts down, and returns the run's
// common results with its verdict: an unrecoverable failure first, else
// the first error reported.
func (h *harness) run(timeout time.Duration, drive func()) (Result, error) {
	watchdog := armWatchdog(timeout, h.fail)
	defer watchdog.Stop()
	if h.f.Pre != nil {
		h.f.Pre(h.rt, h.mgr)
	}
	m := h.rt.Machine()
	residency := func() Residency { return Residency{} }
	if m.FlowController() != nil {
		residency = watchResidency(m, m.NumPEs())
	}
	begin := time.Now()
	drive()
	res := Result{
		Elapsed:      time.Since(begin),
		Residency:    residency(),
		Recover:      time.Duration(h.recoverNS.Load()),
		Reroutes:     m.Torus().Reroutes(),
		Detours:      m.Torus().Detours(),
		WireCRCFails: m.PAMIClient().CRCFails(),
	}
	h.over.Store(true)
	h.wg.Wait()
	h.tr.Close()
	var err error
	if p := h.err.Load(); p != nil {
		err = *p
	}
	if h.mgr != nil {
		res.Stats = h.mgr.Stats()
		if e := h.mgr.UnrecoverableErr(); e != nil {
			err = fmt.Errorf("declared unrecoverable: %w", e)
		}
	}
	return res, err
}
