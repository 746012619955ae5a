package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %g, want 1", got)
	}
	if got := percentile(xs, 1); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	if got := percentile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %g, want 4.6", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g, want 0", got)
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Error("percentile reordered its input")
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{36, 0.5}, {100, 0.9}, {200, 0.95}, {1000, 0.99}, {5000, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{836, 854, 858, 865, 922})
	if q1 != 845 || q2 != 858 || q3 != 893.5 {
		t.Errorf("quartiles of 5 = %g %g %g, want 845 858 893.5", q1, q2, q3)
	}
	if got := spread([]float64{836, 854, 858, 865, 922}); math.Abs(got-48.5/858) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, 48.5/858)
	}
}

// One stalled round must not move the round median, and must move a mean.
func TestRoundMedianIgnoresOneBadRound(t *testing.T) {
	m := &meter{}
	for i := 0; i < 7; i++ {
		m.rounds = append(m.rounds, roundStat{ops: 1000, wall: time.Second, cpuNS: 2e9})
	}
	m.rounds = append(m.rounds, roundStat{ops: 1000, wall: 10 * time.Second, cpuNS: 2e9})
	if got := m.opsPerSecond(); got != 1000 {
		t.Errorf("ops_per_s = %g, want 1000", got)
	}
	if got := m.cpuPerOp(); got != 2e6 {
		t.Errorf("cpu per op = %g, want 2e6", got)
	}
	if got := m.totalOps(); got != 8000 {
		t.Errorf("total ops = %d, want 8000", got)
	}
}

func TestMeterPhases(t *testing.T) {
	m := newMeter(phases{warm: 5 * time.Millisecond, round: 2 * time.Millisecond, rounds: 3}, time.Now())
	measured, between := false, 0
	m.onMeasure = func() { measured = true }
	m.betweenRounds = func() { between++ }
	m.begin()
	chunks := 0
	for m.chunk(10) {
		time.Sleep(200 * time.Microsecond)
		if chunks++; chunks > 1e5 {
			t.Fatal("meter never finished")
		}
	}
	if !measured || between != 3 || len(m.rounds) != 3 {
		t.Fatalf("onMeasure ran: %v, betweenRounds ran %d times, %d rounds; want true, 3, 3", measured, between, len(m.rounds))
	}
	if m.setup < 5*time.Millisecond {
		t.Errorf("setup %v shorter than the warm-up", m.setup)
	}
	if int64(len(m.samples))*10 != m.totalOps() {
		t.Errorf("%d samples of 10 ops, %d ops in rounds", len(m.samples), m.totalOps())
	}
	for _, r := range m.rounds {
		if r.wall < 2*time.Millisecond {
			t.Errorf("round closed after %v, before its 2ms", r.wall)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100, Name: spanChunk},
		{ID: 2, Parent: 1, Start: 10, End: 40, Name: spanHandler},
		{ID: 3, Parent: 1, Start: 30, End: 60, Name: spanHandler},  // overlaps span 2 by 10
		{ID: 4, Parent: 1, Start: 90, End: 120, Name: spanHandler}, // sticks out of the parent by 20
		{ID: 5, Parent: 2, Start: 15, End: 25, Name: spanSend},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - (30 + 20 + 10), 2: 20, 3: 30, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	send, handler := spanStats(spans)
	if send != 10 || handler != 30 {
		t.Errorf("span medians send=%g handler=%g, want 10 and 30", send, handler)
	}
}

func TestTracerRingKeepsLatest(t *testing.T) {
	tr := newTracer()
	for i := 0; i < spanRingCap+10; i++ {
		id, start := tr.open(1)
		tr.done(1, spanSend, id, 0, start)
	}
	spans := tr.spans()
	if len(spans) != spanRingCap {
		t.Fatalf("%d spans kept, want %d", len(spans), spanRingCap)
	}
	seen := make(map[int64]bool)
	for _, s := range spans {
		if s.ID&1 != 1 || seen[s.ID] {
			t.Fatalf("span id %d repeated or not tagged with its PE", s.ID)
		}
		seen[s.ID] = true
	}
	if !seen[int64(spanRingCap+10)<<1|1] {
		t.Error("latest span was dropped")
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := make(map[string]bool)
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if mf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, mf.Workloads[i].Name, w.name)
		}
		if why := mf.Workloads[i].Why; why == "" || len(why) > 200 {
			t.Errorf("workload %q: why must be 1..200 characters, has %d", w.name, len(why))
		}
	}
	compare := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code emits %d", kind, len(got), len(want))
		}
		byName := make(map[string]manifestMetric)
		for _, m := range got {
			byName[m.Name] = m
		}
		for _, d := range want {
			checkName(d.name)
			if !unit.MatchString(d.unit) {
				t.Errorf("%s: unit %q is outside the allowed alphabet", d.name, d.unit)
			}
			m, ok := byName[d.name]
			if !ok {
				t.Errorf("%s %q is emitted by the code but missing from BENCHMARK.json", kind, d.name)
				continue
			}
			if m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s: BENCHMARK.json says %s/%s, the code %s/%s", d.name, m.Unit, m.Better, d.unit, d.better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != boundOf(d.name)):
				t.Errorf("%s: bound in BENCHMARK.json differs from the code's %g", d.name, boundOf(d.name))
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	compare("end-to-end metric", mf.EndToEnd, endToEnd, true)
	compare("per-layer metric", mf.PerLayer, perLayer, false)
	if !reflect.DeepEqual(mf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", mf.Paths)
	}
	// The driver's --seconds must map onto whole rounds, never fewer than 6.
	opt, _, err := parseFlags([]string{"--workload", "md_step", "--seed", "3", "--seconds", "9", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if mf.RunSeconds != 9 || opt.rounds != 6 || !opt.trace || opt.seed != 3 || opt.workload != "md_step" {
		t.Errorf("run_seconds %d parsed to %+v; want 6 rounds, trace on, seed 3, md_step", mf.RunSeconds, opt)
	}
	if opt, _, _ = parseFlags([]string{"--trace", "0", "-seconds", "9"}); opt.trace {
		t.Error("--trace 0 switched tracing on")
	}
	if _, _, err := parseFlags([]string{"-workload", "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func smokeOptions(t *testing.T) options {
	opt, _, err := parseFlags([]string{"-smoke", "-out", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

// Every workload must emit all four end-to-end metrics, non-zero, with no
// failed op.
func TestSmokeEndToEnd(t *testing.T) {
	opt := smokeOptions(t)
	for i := range workloads {
		w := &workloads[i]
		res, err := measure(w, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.name, res.Correct, res.Attempted, res.Failed, res.Notes)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.name]; !ok || !(v.Value > 0) || v.Unit != d.unit {
				t.Errorf("%s: %s = %+v (present: %v), want a positive %s", w.name, d.name, v, ok, d.unit)
			}
		}
	}
}

// The traced run must emit every per-layer metric and write the span file.
func TestSmokeTraced(t *testing.T) {
	opt := smokeOptions(t)
	opt.trace = true
	w := findWorkload("charm_stencil")
	res, err := measure(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("failed checks: %v", res.Notes)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if v, ok := res.Metrics[d.name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s missing or not a number: %+v", d.name, v)
		}
	}
	for _, n := range []string{"charm.msgs_per_op", "charm.entries_per_op", "converse.send_call_ns_p50", "bench.trace_overhead_ratio", "lockless.enq_deq_ns"} {
		if !(res.Metrics[n].Value > 0) {
			t.Errorf("%s = %g on charm_stencil, want > 0", n, res.Metrics[n].Value)
		}
	}
	data, err := os.ReadFile(filepath.Join(opt.outDir, "trace_charm_stencil.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []spanJSON
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("span file: %d spans, err %v", len(spans), err)
	}
}

// A wrong expected value must fail the run, which main turns into a
// non-zero exit.
func TestWrongExpectationFailsTheCommand(t *testing.T) {
	opt := smokeOptions(t)
	opt.workload = "charm_stencil"
	wantStencilSum++
	defer func() { wantStencilSum-- }()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = null
	err = run(opt, nil)
	os.Stdout = stdout
	null.Close()
	if !errors.Is(err, errFailed) {
		t.Fatalf("run with a wrong expected sum returned %v, want errFailed", err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(workload string, p50 ...float64) []runResult {
		var runs []runResult
		for _, v := range p50 {
			runs = append(runs, runResult{Workload: workload, Metrics: map[string]metricValue{
				"op_ns_p50": {v, "ns"}, "ops_per_s": {1e9 / v, "1/s"},
			}})
		}
		return runs
	}
	verdict := func(a, b []runResult, metric string) string {
		for _, c := range compareRuns(a, b) {
			if c.metric == metric {
				return c.verdict
			}
		}
		return "missing"
	}
	steady := mk("pingpong_intra", 100, 101, 99, 100, 102)
	if v := verdict(steady, mk("pingpong_intra", 104, 105, 103, 104, 106), "op_ns_p50"); v != "ok" {
		t.Errorf("+4%% is %q, want ok", v)
	}
	slow := mk("pingpong_intra", 130, 131, 129, 130, 132)
	if v := verdict(steady, slow, "op_ns_p50"); v != "worse" {
		t.Errorf("+30%% latency is %q, want worse", v)
	}
	if v := verdict(steady, slow, "ops_per_s"); v != "worse" {
		t.Errorf("-23%% rate is %q, want worse", v)
	}
	if v := verdict(slow, steady, "op_ns_p50"); v != "ok" {
		t.Errorf("an improvement is %q, want ok", v)
	}
	if v := verdict(steady, mk("pingpong_intra", 80, 100, 120, 140, 160), "op_ns_p50"); v != "unresolved" {
		t.Errorf("a 50%% spread is %q, want unresolved", v)
	}
}
