// Command experiments regenerates every table and figure of the paper —
// the source of truth behind EXPERIMENTS.md and the one front door to all
// of them. The suite is a table of sections (sections.go); with no flags
// every section runs in order, and -only=key[,key...] runs just the named
// ones. Each section prints its model or measurement output next to the
// paper's reported values; a native section that finds a violated
// guarantee (a lost or duplicated message, a recovery that is not bitwise
// identical) exits non-zero.
package main

import (
	"flag"
	"fmt"
	"log"
	"slices"
	"strings"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/converse"
	"blueq/internal/flowctl"
	"blueq/internal/ft"
	"blueq/internal/scenario"
	"blueq/internal/transport"
)

// runtimeFlags are the runtime settings the native sections share: main
// fills in the defaults, calls Register, and the sections read the fields
// back after flag.Parse.
type runtimeFlags struct {
	Transport     string        // -transport
	Seed          int64         // -seed
	FCWindow      int           // -fc-window
	FCOverflowCap int           // -fc-overflow-cap
	Agg           bool          // -agg
	AggBytes      int           // -agg-bytes
	AggDelay      time.Duration // -agg-delay
}

// Register declares the flags on fs with f's current values as defaults.
func (f *runtimeFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Transport, "transport", f.Transport,
		"transport spec: inproc, contended[:scale=F], faulty[:seed=N,drop=F,dup=F,corrupt=F,truncate=F,delayrate=F,delaymax=D]")
	fs.Int64Var(&f.Seed, "seed", f.Seed, "seed for faulty transports and kill schedules (non-zero overrides any seed= in -transport)")
	fs.IntVar(&f.FCWindow, "fc-window", f.FCWindow, "flow-control credit window per (src,dst) node pair (0 = flowctl's default)")
	fs.IntVar(&f.FCOverflowCap, "fc-overflow-cap", f.FCOverflowCap, "flow-control cap on the lockless overflow queue (0 = flowctl's default)")
	fs.BoolVar(&f.Agg, "agg", f.Agg, "arm the per-destination message aggregation layer")
	fs.IntVar(&f.AggBytes, "agg-bytes", f.AggBytes, "aggregation batch size in bytes (0 = aggregate's default; non-zero implies -agg)")
	fs.DurationVar(&f.AggDelay, "agg-delay", f.AggDelay, "aggregation max flush delay (0 = aggregate's default; non-zero implies -agg)")
}

// Spec is the -transport spec with a non-zero -seed applied.
func (f *runtimeFlags) Spec() string {
	if f.Seed == 0 {
		return f.Transport
	}
	return transport.WithSeed(f.Transport, f.Seed)
}

// Aggregation is the aggregation config the flags ask for, nil when none
// of them arms the layer.
func (f *runtimeFlags) Aggregation() *aggregate.Config {
	if !f.Agg && f.AggBytes == 0 && f.AggDelay == 0 {
		return nil
	}
	return &aggregate.Config{MaxBatchBytes: f.AggBytes, MaxDelay: f.AggDelay}
}

// options is what the flags parsed to; the sections read it when they run.
type options struct {
	rt      runtimeFlags
	metrics string
	flow    bool
	det     ft.Config // failure-detector tuning for the ft section
	aggMsgs int
}

// ms renders a duration in the tables' milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// bitwise renders a table's bitwise column: "ok", or "MISMATCH" with the
// first difference from the reference logged.
func bitwise(ref, got scenario.Result) string {
	if err := scenario.SameBits(ref, got); err != nil {
		log.Printf("not bitwise identical: %v", err)
		return "MISMATCH"
	}
	return "ok"
}

// pingPong runs scenario.PingPong on a fresh two-workers-per-node machine
// in the given mode over the -transport spec, with the flow-control and
// aggregation flags applied.
func (o *options) pingPong(nodes int, mode converse.Mode, rounds int) (scenario.PingPongResult, error) {
	const workers = 2
	tr, err := transport.New(o.rt.Spec(), nodes, workers)
	if err != nil {
		return scenario.PingPongResult{}, err
	}
	defer tr.Close()
	cfg := converse.Config{Nodes: nodes, WorkersPerNode: workers, Mode: mode, Transport: tr, Aggregation: o.rt.Aggregation()}
	if o.flow || o.rt.FCWindow > 0 || o.rt.FCOverflowCap > 0 {
		cfg.FlowControl = &flowctl.Config{Window: o.rt.FCWindow, OverflowCap: o.rt.FCOverflowCap}
	}
	m, err := converse.NewMachine(cfg)
	if err != nil {
		return scenario.PingPongResult{}, err
	}
	return scenario.PingPong(m, m.Run, rounds)
}

// pick resolves -only against the table: the whole suite when only is
// empty, else the named sections in the order given.
func pick(secs []section, only string) ([]section, error) {
	if only == "" {
		return secs, nil
	}
	var picked []section
	for _, key := range strings.Split(only, ",") {
		i := slices.IndexFunc(secs, func(sec section) bool { return sec.key == key })
		if i < 0 {
			return nil, fmt.Errorf("unknown -only section %q (want %s)", key, strings.Join(keys(secs), ", "))
		}
		picked = append(picked, secs[i])
	}
	return picked, nil
}

func keys(secs []section) []string {
	out := make([]string, len(secs))
	for i, sec := range secs {
		out[i] = sec.key
	}
	return out
}

func main() {
	o := options{rt: runtimeFlags{Transport: "inproc"}}
	o.det.HeartbeatInterval = time.Millisecond
	o.rt.Register(flag.CommandLine)
	flag.StringVar(&o.metrics, "metrics", "obs_metrics.json", "write the obs section's snapshot here ('' skips the section)")
	flag.BoolVar(&o.flow, "flow", false, "arm credit-based flow control on the obs and pingpong sections")
	flag.DurationVar(&o.det.SuspectAfter, "suspect-after", 12*time.Millisecond, "detector silence floor before suspecting a peer")
	flag.IntVar(&o.aggMsgs, "agg-msgs", 200000, "messages per cell of the agg section's sweep")
	secs := sections(&o)
	only := flag.String("only", "", "run these sections, comma-separated and in the order given, instead of the full suite: "+strings.Join(keys(secs), ", "))
	flag.Parse()

	run, err := pick(secs, *only)
	if err != nil {
		log.Fatal(err)
	}
	for _, sec := range run {
		fmt.Println()
		fmt.Println("==== " + sec.title + " ====")
		sec.run()
	}
}
