package scenario

import (
	"cmp"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/ft"
	"blueq/internal/pami"
)

// tight detector settings for fast, deterministic kill tests, stretched by
// raceScale so the race detector's slowdown cannot starve heartbeats or
// time out probes of alive nodes.
func tight() ft.Config {
	s := time.Duration(raceScale)
	return ft.Config{
		HeartbeatInterval: s * time.Millisecond,
		SuspectAfter:      s * 12 * time.Millisecond,
		ProbeTimeout:      s * 20 * time.Millisecond,
	}
}

// lossy is the wire for the corruption cases. Heartbeats ride it too, so
// those cases keep the harness's default detector: its higher suspect floor
// absorbs a run of dropped heartbeats on a race-detector-slowed scheduler.
const lossy = "faulty:seed=5,corrupt=0.02,truncate=0.01,drop=0.02"

// The link cases run on the 4-node shape {2,1,1,1,2}: links 0-1, 2-3, 0-2,
// 1-3, so node 1's only attachments are 0-1 and 1-3.
const linky = "faulty:seed=1,unreliable=1"

func failLinks(t *testing.T, links ...[2]int) func(*charm.Runtime, *ft.Manager) {
	return func(rt *charm.Runtime, _ *ft.Manager) {
		for _, l := range links {
			if err := rt.Machine().Torus().FailLink(l[0], l[1]); err != nil {
				t.Errorf("FailLink(%d,%d): %v", l[0], l[1], err)
			}
		}
	}
}

// fftCase is one 8³-FFT run on the 4-node cell, 6 iterations unless iters
// says otherwise, schedule fired as iteration 3 launches unless faults
// says otherwise. A case that must succeed is compared bitwise against the
// fault-free run over the same transport (and aggregation setting); a
// chaos row, against the fault-free in-process run.
type fftCase struct {
	name      string
	spec      string // default faulty:seed=1 with the tight detector
	agg       bool
	iters     int   // iterations to complete (default 6)
	slowed    bool  // PE 1 slowed 50 µs a message
	seed      int64 // a chaos row's seed: tight flow-control caps, the harness's detector
	every     int
	faults    Faults
	recovs    [2]int64 // inclusive range of Stats.Recoveries
	confirms  [2]int64 // inclusive range of Stats.Confirmations
	wantErr   string   // substring of the returned error; "" = must succeed
	unrecov   int64    // Stats.Unrecoverable
	more      func(t *testing.T, got Result)
	retryBase time.Duration // shrink the PAMI retransmit timers to this
}

func TestFFTUnderFaults(t *testing.T) {
	one, none := [2]int64{1, 1}, [2]int64{0, 0}
	var mach *converse.Machine // set by the kill/link race case's hook
	cases := []fftCase{
		// Aggregation armed: transposes small enough to batch sit in the dead
		// node's buffers when the kill lands (fail-stop drops them) and in
		// the survivors' at checkpoint time (the pre-commit flush drains
		// those). Batching only re-groups messages, so even the fault-free
		// run must match the aggregation-off reference bitwise.
		{name: "agg/no-faults-vs-agg-off", agg: true, recovs: none, confirms: none,
			more: func(t *testing.T, got Result) {
				if err := SameBits(reference(t, fftCase{}), got); err != nil {
					t.Errorf("agg-on vs agg-off without any failure: %v", err)
				}
			}},
		{name: "agg/kill-pe0", agg: true, faults: Faults{Kill: []int{0}}, recovs: one, confirms: one},
		{name: "agg/kill-pe2", agg: true, faults: Faults{Kill: []int{2}}, recovs: one, confirms: one},

		// Two cascading deaths, the second from inside the first recovery,
		// on a wire that also corrupts, truncates and drops. 1 and 3 are
		// non-adjacent in the buddy ring, so a verified copy of everything
		// survives. The cascade is folded into the running recovery as an
		// unhandled kill; its own confirmation may or may not land in time.
		{name: "cascade-mid-recovery-under-corruption", spec: lossy,
			faults: Faults{Kill: []int{1}, Cascade: []int{3}}, recovs: [2]int64{1, 2}, confirms: [2]int64{1, 2}},
		// The second death a spread after recovery begins.
		{name: "cascade-spread-under-corruption", spec: lossy,
			faults: Faults{Kill: []int{1}, Cascade: []int{3}, Spread: 20 * time.Millisecond},
			recovs: [2]int64{1, 2}, confirms: [2]int64{1, 2}},

		// Both copies of node 1's batches gone (its buddy is node 2), or
		// nothing committed to roll back to: a clean verdict through the
		// returned error, never a hang or a garbage restore.
		{name: "buddy-pair-kill-unrecoverable", faults: Faults{Kill: []int{1, 2}},
			wantErr: "declared unrecoverable", unrecov: 1, recovs: none, confirms: [2]int64{0, 2}},
		{name: "kill-before-first-checkpoint", every: -1, faults: Faults{AtIter: 1, Kill: []int{1}},
			wantErr: "before any checkpoint", unrecov: 1, recovs: none, confirms: [2]int64{0, 1}},

		// Sparse checkpoints: the kill lands as iteration 4 launches with only
		// the pre-run epoch committed, so all four iterations replay.
		{name: "every-4-replays-from-epoch-1", every: 4, faults: Faults{AtIter: 4, Kill: []int{2}},
			recovs: one, confirms: one,
			more: func(t *testing.T, got Result) {
				if got.Replayed != 4 || got.Recover <= 0 {
					t.Errorf("replayed %d iterations after %v, want 4 after a measured recovery", got.Replayed, got.Recover)
				}
			}},

		// A single dead link must be absorbed by rerouting: retransmit over
		// the detour, no node confirmed dead, nothing rolled back.
		{name: "link-down-reroutes", spec: linky, faults: Faults{Mid: failLinks(t, [2]int{0, 1})},
			recovs: none, confirms: none,
			more: func(t *testing.T, got Result) {
				if got.Reroutes == 0 {
					t.Error("run completed without the router ever rerouting")
				}
			}},
		{name: "link-flaps-reroute", spec: linky, iters: 64, faults: Faults{Flaps: 4, Hold: 5 * time.Millisecond},
			recovs: none, confirms: none,
			more: func(t *testing.T, got Result) {
				if got.Reroutes == 0 {
					t.Error("four links flapped without the router ever rerouting")
				}
			}},
		// A node whose every link dies is, to the rest of the machine, dead:
		// the partition verdict must hand it to the recovery path a
		// fail-stop takes (the kill-pe1 case below), same bits out.
		{name: "partition-recovers-like-kill", spec: linky,
			faults: Faults{Mid: failLinks(t, [2]int{0, 1}, [2]int{1, 3})}, recovs: one, confirms: one,
			more: func(t *testing.T, got Result) {
				if got.Stats.Partitions == 0 {
					t.Errorf("recovery ran but no partition verdict was recorded: %+v", got.Stats)
				}
			}},
		{name: "link-cell/kill-pe1", spec: linky, faults: Faults{Kill: []int{1}}, recovs: one, confirms: one},
		// Every packet crossing 0-1 silently dies (flaky=1.0; the link is up
		// as far as the router knows). Retry streaks must bump the pair's
		// path salts until the router detours off the rotten link.
		{name: "gray-link-escaped-by-retry-streaks", spec: linky, retryBase: 200 * time.Microsecond,
			faults: Faults{Mid: func(rt *charm.Runtime, _ *ft.Manager) {
				if err := rt.Machine().Torus().DegradeLink(0, 1, 1.0, 0); err != nil {
					t.Errorf("DegradeLink: %v", err)
				}
			}},
			recovs: none, confirms: none,
			more: func(t *testing.T, got Result) {
				if got.Stats.LinkSuspects == 0 {
					t.Errorf("escaped the gray link without a single link suspicion: %+v", got.Stats)
				}
			}},
		// A kill racing a link failure on the same peer funnels two teardown
		// paths at the same channels; afterwards further DropPeer sweeps
		// must be no-ops on flowctl, pami and the envelope pool.
		{name: "kill-races-link-failure", spec: linky, recovs: one, confirms: one,
			faults: Faults{Mid: func(rt *charm.Runtime, _ *ft.Manager) {
				mach = rt.Machine()
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); mach.KillNode(1) }()
				go func() { defer wg.Done(); failLinks(t, [2]int{0, 1})(rt, nil) }()
				wg.Wait()
			}},
			more: func(t *testing.T, _ Result) {
				for r := 0; r < mach.NumNodes(); r++ {
					if !mach.NodeDead(r) {
						mach.PAMIClient().Node(r).DropPeer(1)
						mach.PAMIClient().Node(r).DropPeer(1)
					}
				}
				mach.EnvelopePool().DropOwner(1)
				if fc := mach.FlowController(); fc != nil {
					fc.DropPeer(1)
				}
			}},
	}
	// Kill every node index in turn: detect, roll back to the buddy
	// checkpoint, replay, finish bitwise identical — the paper-line
	// guarantee of double in-memory checkpointing.
	for pe := 0; pe < 4; pe++ {
		cases = append(cases, fftCase{name: fmt.Sprintf("kill-pe%d", pe), faults: Faults{Kill: []int{pe}},
			recovs: one, confirms: one,
			more: func(t *testing.T, got Result) {
				if got.Stats.RestoredElements == 0 {
					t.Error("recovery restored no elements")
				}
			}})
	}
	// The chaos rows, all behind a 16-credit window, so each must also end
	// Bounded. slowed: PE 1 executes every message 50 µs late over each
	// hostile wire; ft must see no failure. kills: PE 1 dies, and PE 3
	// 20 ms into the recovery (1 and 3 are non-adjacent in the buddy ring,
	// so a verified copy of everything survives), on a corrupting wire.
	// links: the cell's four links fail and heal one after another, each
	// down for 10 ms; the router must absorb every flap with no rollback.
	// Both run 64 iterations, so the schedule lands inside the run: a
	// reroute is only counted when traffic asks for a route.
	for _, r := range chaosRows(hostile...) {
		cases = append(cases, fftCase{name: "slowed/" + r.name, spec: r.spec, agg: r.agg, seed: r.seed,
			slowed: true, recovs: none, confirms: none})
	}
	for _, r := range chaosRows(wire{"corrupt", "faulty:drop=0.02,corrupt=0.02,truncate=0.01"}) {
		cases = append(cases, fftCase{name: "kills/" + r.name, spec: r.spec, agg: r.agg, seed: r.seed, iters: 64,
			faults: Faults{Kill: []int{1}, Cascade: []int{3}, Spread: 20 * time.Millisecond},
			recovs: [2]int64{1, 2}, confirms: [2]int64{1, 2}})
	}
	for _, r := range chaosRows(wire{"unreliable", "faulty:unreliable=1"}) {
		cases = append(cases, fftCase{name: "links/" + r.name, spec: r.spec, agg: r.agg, seed: r.seed, iters: 64,
			faults: Faults{Flaps: 4, Hold: 10 * time.Millisecond}, recovs: none, confirms: none,
			more: func(t *testing.T, got Result) {
				if got.Reroutes == 0 {
					t.Error("four links flapped without the router ever rerouting")
				}
			}})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.seed != 0 {
				replayHint(t, tc.seed)
			}
			bubble(t, func(t *testing.T) {
				if tc.retryBase > 0 {
					s := time.Duration(raceScale)
					base, max := pami.RetryBase, pami.RetryMax
					pami.RetryBase, pami.RetryMax = s*tc.retryBase, 10*s*tc.retryBase
					defer func() { pami.RetryBase, pami.RetryMax = base, max }()
				}
				var ref Result
				if tc.seed != 0 {
					ref = reference(t, fftCase{spec: "inproc", iters: tc.iters})
				} else {
					ref = reference(t, tc)
				}
				got, err := FFT(tc.config())
				switch {
				case tc.wantErr == "" && err != nil:
					t.Fatalf("run failed: %v (stats %+v)", err, got.Stats)
				case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
					t.Fatalf("error = %v, want one containing %q (stats %+v)", err, tc.wantErr, got.Stats)
				}
				if n := got.Stats.Recoveries; n < tc.recovs[0] || n > tc.recovs[1] {
					t.Errorf("recoveries = %d, want in %v (stats %+v)", n, tc.recovs, got.Stats)
				}
				if n := got.Stats.Confirmations; n < tc.confirms[0] || n > tc.confirms[1] {
					t.Errorf("confirmations = %d, want in %v (stats %+v)", n, tc.confirms, got.Stats)
				}
				if got.Stats.Unrecoverable != tc.unrecov {
					t.Errorf("unrecoverable = %d, want %d", got.Stats.Unrecoverable, tc.unrecov)
				}
				if tc.wantErr == "" {
					if err := SameBits(ref, got); err != nil {
						t.Errorf("vs fault-free run: %v", err)
					}
				}
				if err := got.Bounded(); err != nil {
					t.Error(err)
				}
				if tc.more != nil {
					tc.more(t, got)
				}
			})
		})
	}
}

func (tc fftCase) config() FFTConfig {
	cfg := FFTConfig{N: 8, Iters: cmp.Or(tc.iters, 6), Transport: tc.spec, Every: tc.every, Faults: tc.faults}
	if cfg.Transport == "" {
		cfg.Transport = "faulty:seed=1"
	}
	if cfg.Transport != lossy && tc.seed == 0 {
		cfg.Detector = tight()
	}
	if tc.agg {
		cfg.Aggregation = &aggregate.Config{}
	}
	if tc.seed != 0 {
		cfg.FlowControl = slowFC()
	}
	if tc.slowed {
		cfg.Slow = slow
	}
	if cfg.Faults.AtIter == 0 {
		cfg.Faults.AtIter = 3
	}
	return cfg
}

var (
	refMu sync.Mutex
	refs  = map[string]Result{}
)

// reference returns the vetted fault-free run tc is compared against, run
// once per (transport, aggregation, iterations).
func reference(t *testing.T, tc fftCase) Result {
	t.Helper()
	cfg := tc.config()
	cfg.Faults, cfg.Every = Faults{}, 0
	key := fmt.Sprint(cfg.Transport, tc.agg, cfg.Iters)
	refMu.Lock()
	defer refMu.Unlock()
	if ref, ok := refs[key]; ok {
		return ref
	}
	ref, err := Reference(FFT(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Checkpoints == 0 {
		t.Fatal("reference run committed no checkpoints")
	}
	refs[key] = ref
	return ref
}

// TestDetectorNoFalsePositivesContended runs the FFT under the contended
// transport's modelled link delays with heartbeats at full tilt and
// asserts the detector never so much as suspects a live node: the timeout
// floor plus the adaptive phi term must absorb worst-case queueing. Each
// iteration waits out the modelled link delays (~0.3 ms at scale 25), so
// 64 of them span about ten heartbeat intervals: the run must outlast
// several, or whether any heartbeat is sent is down to luck.
func TestDetectorNoFalsePositivesContended(t *testing.T) {
	res, err := FFT(FFTConfig{
		N: 8, Iters: 64, Transport: "contended:scale=25",
		Detector: ft.Config{HeartbeatInterval: 2 * time.Millisecond, SuspectAfter: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Suspicions != 0 || res.Stats.Confirmations != 0 || res.Stats.Recoveries != 0 {
		t.Errorf("false positive under contended delays: %+v", res.Stats)
	}
	if res.Stats.HeartbeatsSent == 0 {
		t.Error("no heartbeats sent; detector never ran")
	}
}

// TestCheckpointCadence verifies the epoch/commit bookkeeping of a
// failure-free run over the default in-process network: one checkpoint
// before the first iteration plus one per completed multiple of Every short
// of the last, monotonically committed.
func TestCheckpointCadence(t *testing.T) {
	for _, tc := range []struct{ iters, every, want int }{{4, 1, 4}, {8, 2, 4}, {8, 4, 2}, {3, -1, 0}} {
		res, err := FFT(FFTConfig{N: 8, Iters: tc.iters, Every: tc.every})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Checkpoints != int64(tc.want) || res.Stats.CommittedEpoch != uint64(tc.want) {
			t.Errorf("%d iterations, every %d: %d checkpoints, committed epoch %d; want %d",
				tc.iters, tc.every, res.Stats.Checkpoints, res.Stats.CommittedEpoch, tc.want)
		}
	}
}
