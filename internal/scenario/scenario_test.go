package scenario

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"blueq/internal/ft"
)

// The harness's own failure modes: a bad schedule flag, a diverged or
// truncated result, a tainted reference and a wedged run must each come
// back as a descriptive error.

func TestParseSchedule(t *testing.T) {
	for _, tc := range []struct {
		in      string
		n       int
		d       time.Duration
		wantErr string
	}{
		{in: "2@100ms", n: 2, d: 100 * time.Millisecond},
		{in: "4@50ms", n: 4, d: 50 * time.Millisecond},
		{in: "2", wantErr: "want N@DUR"},
		{in: "0@50ms", wantErr: "bad count"},
		{in: "x@50ms", wantErr: "bad count"},
		{in: "2@soon", wantErr: "bad duration"},
		{in: "2@0s", n: 2},
		{in: "2@-100ms", wantErr: "negative"},
		{in: "1@-1ns", wantErr: "negative"},
	} {
		n, d, err := ParseSchedule("-links", tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "-links") {
				t.Errorf("ParseSchedule(%q) error = %v, want one naming -links and %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil || n != tc.n || d != tc.d {
			t.Errorf("ParseSchedule(%q) = %d, %v, %v; want %d, %v", tc.in, n, d, err, tc.n, tc.d)
		}
	}
}

func TestParseKills(t *testing.T) {
	victims, spread, err := ParseKills("2@150ms")
	if err != nil || len(victims) != 2 || victims[0] != 1 || victims[1] != 3 || spread != 150*time.Millisecond {
		t.Errorf("ParseKills(2@150ms) = %v, %v, %v; want [1 3], 150ms", victims, spread, err)
	}
	if victims, _, err := ParseKills("1@1s"); err != nil || len(victims) != 1 || victims[0] != 1 {
		t.Errorf("ParseKills(1@1s) = %v, %v; want [1]", victims, err)
	}
	if _, _, err := ParseKills("3@1s"); err == nil || !strings.Contains(err.Error(), "at most 2 kills") {
		t.Errorf("ParseKills(3@1s) error = %v, want the 4-node cell's two-kill limit", err)
	}
	if _, _, err := ParseKills("2@-1s"); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("ParseKills(2@-1s) error = %v, want the negative spread refused", err)
	}
	if _, _, err := ParseKills("2-1s"); err == nil || !strings.Contains(err.Error(), "-kills") {
		t.Errorf("ParseKills(2-1s) error = %v, want one naming -kills", err)
	}
}

func TestSameBits(t *testing.T) {
	ref := Result{
		Grids:  [][]complex128{{1, 2, 3}, {4, 5, 6}},
		States: [][2]uint64{{3, 6}, {3, 12}},
	}
	clone := func() Result {
		c := Result{States: append([][2]uint64(nil), ref.States...)}
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

// FuzzParseSchedule: any flag value is refused with an error naming the
// flag, or parses to a count of at least one and a duration that is not
// negative and that prints back to an equal schedule.
func FuzzParseSchedule(f *testing.F) {
	for _, s := range []string{
		"2@50ms", "2@100ms", "2@150ms", "4@50ms", "1@1s", "3@1s", "2@0s",
		"2", "0@50ms", "x@50ms", "2@soon", "2@-100ms", "2@-1s", "2-1s", "@", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, d, err := ParseSchedule("-links", s)
		if err != nil {
			if !strings.Contains(err.Error(), "-links") {
				t.Fatalf("ParseSchedule(%q) error %q does not name the flag", s, err)
			}
			return
		}
		if n < 1 || d < 0 {
			t.Fatalf("ParseSchedule(%q) = %d, %v: want a count >= 1 and a duration >= 0", s, n, d)
		}
		if n2, d2, err := ParseSchedule("-links", fmt.Sprintf("%d@%s", n, d)); err != nil || n2 != n || d2 != d {
			t.Fatalf("ParseSchedule(%q) = %d@%s re-parses to %d, %v, %v", s, n, d, n2, d2, err)
		}
	})
}
