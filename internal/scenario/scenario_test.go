package scenario

import (
	"errors"
	"flag"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/flowctl"
	"blueq/internal/ft"
	"blueq/internal/md"
	"blueq/internal/transport"
)

// seeds is how many seeds every chaos row replays: each row runs once per
// seed in 1..-seeds, as a subtest whose name ends in seed=N. It goes after
// the package (go test ./internal/scenario -seeds=10): go test ends its
// package list at the first flag it does not know.
var seeds = flag.Int("seeds", 1, "replay every chaos row over seeds 1..N")

// hostile are the chaos rows' wires, by row label: seeded drops and
// duplicates, the same with corruption and truncation, and modelled link
// stalls. No label is a substring of another, so -run picks one.
var hostile = []wire{
	{"dropdup", "faulty:drop=0.05,dup=0.02"},
	{"corrupt", "faulty:drop=0.05,dup=0.02,corrupt=0.02,truncate=0.01"},
	{"contended", "contended:scale=3"},
}

type wire struct{ label, spec string }

// slowFC is the slowed rows' flow control: caps tight enough that the
// slowed PE holds its backlog at the bound.
func slowFC() *flowctl.Config { return &flowctl.Config{Window: 16, OverflowCap: 64} }

// slow is the chaos rows' per-execution delay on the slowed PE.
const slow = 50 * time.Microsecond

// chaosRow is one point of the chaos axes: a wire, aggregation off or on,
// and the seed its dice roll with.
type chaosRow struct {
	name string // <wire>/agg=<off|on>/seed=<n>
	spec string // the wire's spec, reseeded
	agg  bool
	seed int64
}

func (r chaosRow) aggregation() *aggregate.Config {
	if r.agg {
		return &aggregate.Config{}
	}
	return nil
}

// chaosRows is every (wire, aggregation, seed) row over wires.
func chaosRows(wires ...wire) []chaosRow {
	var rows []chaosRow
	for _, w := range wires {
		for _, agg := range []string{"off", "on"} {
			for seed := int64(1); seed <= int64(*seeds); seed++ {
				rows = append(rows, chaosRow{
					name: fmt.Sprintf("%s/agg=%s/seed=%d", w.label, agg, seed),
					spec: transport.WithSeed(w.spec, seed), agg: agg == "on", seed: seed,
				})
			}
		}
	}
	return rows
}

// replayHint logs, if t fails, the command that reruns exactly t: every
// level of its name anchored, and -seeds wide enough to reach its seed.
func replayHint(t *testing.T, seed int64) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		levels := strings.Split(t.Name(), "/")
		for i, l := range levels {
			levels[i] = "^" + regexp.QuoteMeta(l) + "$"
		}
		t.Logf("replay: go test -count=1 -run '%s' ./internal/scenario -seeds=%d", strings.Join(levels, "/"), seed)
	})
}

// The harness's own failure modes: a diverged or truncated result, a
// tainted reference and a wedged run must each come back as a descriptive
// error.

func TestSameBits(t *testing.T) {
	ref := Result{
		Grids:  [][]complex128{{1, 2, 3}, {4, 5, 6}},
		Atoms:  []md.Vec3{{1, 2, 3}, {4, 5, 6}},
		States: [][2]uint64{{3, 6}, {3, 12}},
	}
	clone := func() Result {
		c := Result{Atoms: slices.Clone(ref.Atoms), States: slices.Clone(ref.States)}
		for _, g := range ref.Grids {
			c.Grids = append(c.Grids, append([]complex128(nil), g...))
		}
		return c
	}
	if err := SameBits(ref, clone()); err != nil {
		t.Errorf("identical results: %v", err)
	}
	for _, tc := range []struct {
		name    string
		mutate  func(r *Result)
		wantErr string
	}{
		{"first differing cell", func(r *Result) { r.Grids[1][1] = 50; r.Grids[1][2] = 60 }, "PE 1 grid[1]"},
		{"short grid", func(r *Result) { r.Grids[0] = r.Grids[0][:2] }, "PE 0 grid length 2 vs reference 3"},
		{"missing PE", func(r *Result) { r.Grids = r.Grids[:1] }, "1 PE grids vs reference 2"},
		{"atom position", func(r *Result) { r.Atoms[1][2] = 6.5 }, "atom 1 at"},
		{"missing atom", func(r *Result) { r.Atoms = r.Atoms[:1] }, "1 atoms vs reference 2"},
		{"element state", func(r *Result) { r.States[1][1]++ }, "element 1"},
		{"missing element", func(r *Result) { r.States = r.States[:1] }, "1 element states vs reference 2"},
	} {
		got := clone()
		tc.mutate(&got)
		if err := SameBits(ref, got); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: SameBits = %v, want an error naming %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestExactMatchesStep(t *testing.T) {
	var got Result
	for idx := 0; idx < 5; idx++ {
		var e Elem
		for i := 0; i < 7; i++ {
			e.Step(idx)
		}
		var back Elem
		back.UnpackCheckpoint(e.PackCheckpoint())
		got.States = append(got.States, [2]uint64{back.Iter, back.Sum})
	}
	if err := SameBits(Exact(5, 7), got); err != nil {
		t.Error(err)
	}
}

func TestReferenceRejectsTaintedRun(t *testing.T) {
	if _, err := Reference(Result{}, nil); err != nil {
		t.Errorf("clean run rejected: %v", err)
	}
	if _, err := Reference(Result{Stats: ft.Stats{Recoveries: 1}}, nil); err == nil || !strings.Contains(err.Error(), "saw failures") {
		t.Errorf("run with a recovery accepted as reference: %v", err)
	}
	if _, err := Reference(Result{Stats: ft.Stats{Confirmations: 1}}, nil); err == nil {
		t.Error("run with a confirmed death accepted as reference")
	}
	boom := errors.New("boom")
	if _, err := Reference(Result{}, boom); !errors.Is(err, boom) {
		t.Errorf("failed run's error not passed through: %v", err)
	}
}

// A run that can never finish — a node is killed and the detector's
// hour-long heartbeat will never notice — must come back from the watchdog
// as ErrWedged with the machine shut down, not hang the caller.
func TestWatchdogReturnsWedgedRun(t *testing.T) {
	res, err := FFT(FFTConfig{
		N: 8, Iters: 6, Detector: ft.Config{HeartbeatInterval: time.Hour},
		Faults:  Faults{AtIter: 3, Kill: []int{1}},
		Timeout: 300 * time.Millisecond,
	})
	if !errors.Is(err, ErrWedged) {
		t.Fatalf("wedged run returned %v, want ErrWedged", err)
	}
	if res.Stats.Recoveries != 0 || len(res.Grids) != 4 {
		t.Errorf("wedged run's result not filled in: recoveries %d, %d grids", res.Stats.Recoveries, len(res.Grids))
	}
}

func TestBadTransportSpecIsAnError(t *testing.T) {
	if _, err := FFT(FFTConfig{Iters: 1, Transport: "faulty:nonsense=1"}); err == nil {
		t.Error("FFT accepted a malformed transport spec")
	}
	if _, err := Imbalance(ImbalanceConfig{Nodes: 2, Workers: 1, Elems: 2, Total: 1, Transport: "warp-drive"}); err == nil {
		t.Error("Imbalance accepted an unknown transport")
	}
}
