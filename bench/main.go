// Command bench is the repository's benchmark: six closed-loop workloads on
// 2-PE machines, four end-to-end metrics per workload reported as medians
// of many fixed-size chunks, and — in a separate traced run — a ladder of
// per-layer numbers timed from outside the layers. README.md in this
// directory defines every workload and metric; BENCHMARK.json at the
// repository root is the contract the numbers are checked against.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"blueq/internal/obs"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	trace    bool
	warm     time.Duration
	round    time.Duration
	rounds   int
	seconds  float64
	runs     int
	jsonPath string
	outDir   string
	smoke    bool
	self     bool
	compare  bool
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run as written to -json files.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is the -json file: every run appended so far.
type resultFile struct {
	Runs []runResult `json:"runs"`
}

func main() {
	// Two worker PEs per machine and never more runnable PEs than
	// processors, whatever the host has.
	runtime.GOMAXPROCS(2)
	opt, rest, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if err := run(opt, rest); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailed is returned when every run completed but a check failed.
var errFailed = errors.New("a workload failed its output checks")

func parseFlags(args []string) (options, []string, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all six): "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input (faulty-transport spec, FFT input, MD system and velocities)")
	fs.BoolVar(&o.trace, "trace", false, "traced run: obs on, driver spans, ladder rungs; prints the per-layer metrics instead of the end-to-end ones")
	fs.DurationVar(&o.warm, "warm", 3*time.Second, "warm-up before the first measured chunk")
	fs.DurationVar(&o.round, "round", 1500*time.Millisecond, "measured time per round")
	fs.IntVar(&o.rounds, "rounds", 8, "measured rounds")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run: overrides -rounds with seconds/round (the acceptance driver passes BENCHMARK.json's run_seconds)")
	fs.IntVar(&o.runs, "runs", 1, "repeat everything this many times, with seeds seed, seed+1, ...")
	fs.StringVar(&o.jsonPath, "json", "", "append every run's result to this JSON file (input of -compare)")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for the traced run's span files")
	fs.BoolVar(&o.smoke, "smoke", false, "0.1 s warm-up, 2 × 0.1 s rounds, one set-up: checks that everything runs, measures nothing")
	fs.BoolVar(&o.self, "selfcheck", false, "run the suite twice back to back (A/A) and compare the two with the benchmark's own bounds")
	fs.BoolVar(&o.compare, "compare", false, "compare two -json files: bench -compare parent.json change.json")
	if err := fs.Parse(normalizeTraceArg(args)); err != nil {
		return o, nil, err
	}
	if o.seconds > 0 {
		o.rounds = int(o.seconds/o.round.Seconds() + 0.5)
	}
	if o.smoke {
		o.warm, o.round, o.rounds = 100*time.Millisecond, 100*time.Millisecond, 2
	}
	if o.rounds < 1 || o.runs < 1 || o.round <= 0 || o.warm < 0 {
		return o, nil, fmt.Errorf("need rounds and runs >= 1, round > 0 and warm >= 0")
	}
	if o.workload != "" && findWorkload(o.workload) == nil {
		return o, nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	return o, fs.Args(), nil
}

// normalizeTraceArg lets the boolean -trace take its value as a separate
// word ("--trace 1"), the form the acceptance driver uses, as well as
// "-trace" and "-trace=1".
func normalizeTraceArg(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func run(opt options, rest []string) error {
	if opt.compare {
		if len(rest) != 2 {
			return fmt.Errorf("-compare takes two files: parent.json change.json")
		}
		a, err := readResults(rest[0])
		if err != nil {
			return err
		}
		b, err := readResults(rest[1])
		if err != nil {
			return err
		}
		if worse := printComparison(os.Stdout, rest[0], rest[1], a, b); worse > 0 {
			return fmt.Errorf("%d workload × metric pairs are worse than the bound", worse)
		}
		return nil
	}
	if len(rest) != 0 {
		return fmt.Errorf("unexpected arguments %q", rest)
	}
	if opt.self {
		return selfCheck(opt)
	}
	results, err := runSuite(opt)
	if err != nil {
		return err
	}
	if opt.jsonPath != "" {
		if err := appendResults(opt.jsonPath, results); err != nil {
			return err
		}
	}
	for _, r := range results {
		if !r.Correct {
			return errFailed
		}
	}
	return nil
}

// runSuite runs the selected workloads opt.runs times and prints each
// result as it completes. With a single workload and a single run, the
// last line of standard output is the result object the acceptance driver
// reads.
func runSuite(opt options) ([]runResult, error) {
	selected := workloads
	if opt.workload != "" {
		selected = []workload{*findWorkload(opt.workload)}
	}
	var results []runResult
	for i := 0; i < opt.runs; i++ {
		for k := range selected {
			o := opt
			o.seed = opt.seed + int64(i)
			res, err := measure(&selected[k], o)
			if err != nil {
				return results, fmt.Errorf("%s: %w", selected[k].name, err)
			}
			printResult(os.Stdout, res)
			results = append(results, res)
		}
	}
	if len(results) == 1 {
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{results[0].Correct, results[0].Attempted, results[0].Failed, results[0].Metrics})
		if err != nil {
			return results, err
		}
		fmt.Println(string(line))
	}
	return results, nil
}

// measure runs one workload once: the end-to-end run, or the traced run.
func measure(w *workload, opt options) (runResult, error) {
	res := runResult{Workload: w.name, Seed: opt.seed, Trace: opt.trace, Metrics: make(map[string]metricValue)}
	do := func(c runCfg) (*outcome, error) {
		runtime.GC() // each run starts from a collected heap
		o, err := w.run(c)
		if err != nil {
			return nil, err
		}
		// The hooks hold the finished machine; drop them so that the next
		// run's heap_live_mb does not count this one.
		o.m.onMeasure, o.m.betweenRounds = nil, nil
		res.Attempted += o.attempted
		res.Failed += o.failed()
		keys := make([]string, 0, len(o.fails))
		for k := range o.fails {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			res.Notes = append(res.Notes, o.fails[k].note)
		}
		return o, nil
	}
	var values map[string]float64
	var err error
	defs := endToEnd
	if opt.trace {
		defs = perLayer
		values, err = measureLayers(w, opt, do)
	} else {
		values, err = measureEndToEnd(opt, do)
	}
	if err != nil {
		return res, err
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// setups is how many times one end-to-end run repeats the set-up (build +
// warm-up), each time on a freshly built machine; setup_s is their median.
// The smoke pass sets up once.
const setups = 3

// measureEndToEnd is the untraced run (internal/obs stays off). The set-up
// is repeated, and the measured rounds are shared out over the repeats:
// chunk samples and rounds are pooled, so the medians span several machine
// instances instead of one (instances differ by a few percent on the
// latency-bound workloads, as much as runs do).
func measureEndToEnd(opt options, do func(runCfg) (*outcome, error)) (map[string]float64, error) {
	pooled := &meter{}
	var setupS, heaps []float64
	n := setups
	if opt.smoke {
		n = 1
	}
	for _, rounds := range shareRounds(opt.rounds, n) {
		o, err := do(runCfg{seed: opt.seed, ph: phases{warm: opt.warm, round: opt.round, rounds: rounds}})
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, o.m.setup.Seconds())
		heaps = append(heaps, o.heapMB...)
		pooled.samples = append(pooled.samples, o.m.samples...)
		pooled.rounds = append(pooled.rounds, o.m.rounds...)
		o.m.samples = nil // the next instance allocates its own buffer
	}
	return map[string]float64{
		"setup_s":      median(setupS),
		"op_ns_p50":    median(pooled.samples),
		"ops_per_s":    pooled.opsPerSecond(),
		"heap_live_mb": median(heaps),
	}, nil
}

// measureLayers is the traced run: an untraced reference (a third of the
// rounds) and the traced run (the rest) in one invocation, so that their
// ratio is the tracing overhead on this host; then the rungs.
func measureLayers(w *workload, opt options, do func(runCfg) (*outcome, error)) (map[string]float64, error) {
	ph := phases{warm: opt.warm, round: opt.round, rounds: max(2, opt.rounds/3)}
	ref, err := do(runCfg{seed: opt.seed, ph: ph})
	if err != nil {
		return nil, err
	}
	ph.rounds = max(2, opt.rounds-ph.rounds)
	tr := newTracer()
	obs.SetEnabled(true)
	traced, err := do(runCfg{seed: opt.seed, ph: ph, tr: tr})
	counts := obsCounts()
	obs.SetEnabled(false)
	if err != nil {
		return nil, err
	}
	scale := 1.0
	if opt.smoke {
		scale = 0.1
	}
	rungs, err := runRungs(opt.seed, scale)
	if err != nil {
		return nil, fmt.Errorf("rungs: %w", err)
	}
	if err := writeSpans(filepath.Join(opt.outDir, "trace_"+w.name+".json"), tr.spans()); err != nil {
		return nil, err
	}
	return layerMetrics(w, ref, traced, tr, counts, rungs), nil
}

// shareRounds splits the measured rounds over n machine instances as evenly
// as it can, earlier instances first; every instance gets at least one.
func shareRounds(rounds, n int) []int {
	if n > rounds {
		n = rounds
	}
	out := make([]int, n)
	for i := range out {
		out[i] = rounds / n
		if i < rounds%n {
			out[i]++
		}
	}
	return out
}

func printResult(w io.Writer, r runResult) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s  seed=%d  %s  op=%s  ops_attempted=%d  ops_failed=%d\n",
		r.Workload, r.Seed, mode, findWorkload(r.Workload).op, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}

func readResults(path string) ([]runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// appendResults adds runs to the file at path, creating it if needed, so
// alternating parent/change invocations can each grow their own file.
func appendResults(path string, runs []runResult) error {
	var f resultFile
	if old, err := readResults(path); err == nil {
		f.Runs = old
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
