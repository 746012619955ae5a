// Command soak is the chaos soak harness for the flow-control and
// overload-protection layer: it drives real workloads (scenario.Flood with
// a deliberately slowed consumer, the 3D FFT, the mini-NAMD MD step) over
// hostile transports (faulty: drops/dups, contended: link stalls) for a
// wall-clock budget and asserts the three saturation properties the
// runtime promises:
//
//  1. bounded memory — the resident scheduler backlog and the reorder
//     buffer never exceed the configured caps, no matter how far the
//     consumer lags;
//  2. exactly-once — every reliable message executes exactly once despite
//     drops, duplicates and backpressure parking;
//  3. forward progress — throughput never collapses to zero (parking is
//     bounded by MaxBlock; the ladder degrades, it does not deadlock).
//
// -sweep switches to the saturation study behind EXPERIMENTS.md: offered
// load is stepped across the slowed consumer's capacity and the achieved
// throughput is tabulated, making the knee visible.
//
// Each cell is a config for the drivers in internal/scenario plus the line
// it prints; the residency sampler and both verdicts live there. Exit
// status is non-zero if any property fails — CI runs this for 20 s per
// transport.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/fft3d"
	"blueq/internal/flowctl"
	"blueq/internal/md"
	"blueq/internal/mdsim"
	"blueq/internal/scenario"
	"blueq/internal/transport"
)

// cellNames are the workloads -workload accepts by name; the flag's help
// text and its validation both read this list.
var cellNames = []string{"flood", "fft", "md", "lb"}

// out carries the human-readable cell lines; -json moves them to stderr so
// stdout stays a single parseable JSON document.
var out io.Writer = os.Stdout

// cellReport is one workload×transport cell in the -json summary.
type cellReport struct {
	Workload  string  `json:"workload"`
	Transport string  `json:"transport"`
	Seconds   float64 `json:"seconds"`
	OK        bool    `json:"ok"`
	Error     string  `json:"error,omitempty"`
}

// soakSummary is the -json document: every cell's verdict plus the overall
// one. Exit status is non-zero whenever ok is false.
type soakSummary struct {
	Cells    []cellReport `json:"cells"`
	Failures int          `json:"failures"`
	OK       bool         `json:"ok"`
}

func main() {
	// The runtime flags shared with cmd/experiments, at soak's defaults:
	// both hostile transports, seeded, with tight flow-control caps.
	rt := scenario.Flags{Transport: "both", Seed: 1, FCWindow: 16, FCOverflowCap: 64}
	rt.Register(flag.CommandLine)
	flag.Lookup("transport").Usage += "; or 'both' for the default faulty and contended specs"
	duration := flag.Duration("duration", 20*time.Second, "total wall-clock budget, split across workload×transport cells")
	workload := flag.String("workload", "all", strings.Join(cellNames, ", ")+", or all")
	slow := flag.Duration("slow", 50*time.Microsecond, "consumer-side per-message execution delay (the overload)")
	fcMaxBlock := flag.Duration("fc-maxblock", 10*time.Second, "longest a sender parks before overdraft")
	sweep := flag.Bool("sweep", false, "run the offered-load saturation sweep instead of the soak")
	corrupt := flag.Float64("corrupt", 0, "packet corruption rate armed on faulty transports (truncation at half the rate)")
	kills := flag.String("kills", "", "N@DUR chaos schedule for the fft cell: N fail-stops spread DUR apart, asserting bitwise-identical output (e.g. 2@100ms)")
	links := flag.String("links", "", "N@DUR link-flap schedule for the fft cell: N links failed then healed DUR apart, asserting rerouting with zero rollbacks (e.g. 4@50ms)")
	lbCell := flag.Bool("lb", false, "add the load-balancer chaos cell: continuous rotating-imbalance migrations with per-phase checkpoints (with -kills, the fail-stops land mid-migration)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON summary on stdout (cell logs move to stderr); exit status stays non-zero on any invariant failure")
	flag.Parse()

	if *jsonOut {
		out = os.Stderr
	}
	usage := func(err error) {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		os.Exit(2)
	}
	var victims []int // -kills: PEs to fail-stop, in order
	var spread time.Duration
	if *kills != "" {
		var err error
		if victims, spread, err = scenario.ParseKills(*kills); err != nil {
			usage(err)
		}
	}
	var flaps int // -links: links to flap, each held down for hold
	var hold time.Duration
	if *links != "" {
		var err error
		if flaps, hold, err = scenario.ParseSchedule("-links", *links); err != nil {
			usage(err)
		}
		if victims != nil {
			usage(fmt.Errorf("-kills and -links both reshape the fft cell; pick one"))
		}
	}

	fcc := flowctl.Config{
		Window:      rt.FCWindow,
		OverflowCap: rt.FCOverflowCap,
		MaxBlock:    *fcMaxBlock,
	}
	agc := rt.Aggregation()

	specs := []string{rt.Spec()}
	if rt.Transport == "both" {
		specs = []string{
			transport.WithSeed("faulty:drop=0.05,dup=0.02", rt.Seed),
			"contended:scale=3",
		}
	}
	for i, sp := range specs {
		specs[i] = withCorrupt(sp, *corrupt)
	}

	if *sweep {
		runSweep(specs[0], *slow, fcc, agc, *duration)
		return
	}

	var workloads []string
	switch {
	case *workload == "all":
		workloads = []string{"flood", "fft", "md"}
		if *lbCell {
			workloads = append(workloads, "lb")
		}
	case slices.Contains(cellNames, *workload):
		workloads = []string{*workload}
	default:
		usage(fmt.Errorf("unknown -workload %q (want %s, or all)", *workload, strings.Join(cellNames, ", ")))
	}
	if *lbCell && *workload != "all" && *workload != "lb" {
		workloads = append(workloads, "lb")
	}

	cell := *duration / time.Duration(len(specs)*len(workloads))
	if cell < time.Second {
		cell = time.Second
	}
	summary := soakSummary{OK: true}
	for _, sp := range specs {
		for _, w := range workloads {
			var err error
			name := w
			begin := time.Now()
			switch w {
			case "flood":
				err = runFlood(sp, cell, *slow, fcc, agc)
			case "fft":
				switch {
				case victims != nil:
					name = "fft-kills"
					err = runFFTChaosCell(sp, victims, spread)
				case flaps > 0:
					name = "fft-links"
					err = runFFTLinkCell(sp, flaps, hold)
				default:
					err = runFFTSoak(sp, cell, *slow, fcc, agc)
				}
			case "md":
				err = runMDSoak(sp, cell, *slow, fcc, agc)
			case "lb":
				if victims != nil {
					name = "lb-kills"
				}
				err = runLBSoak(sp, cell, fcc, agc, victims, spread)
			}
			rep := cellReport{
				Workload: name, Transport: sp,
				Seconds: time.Since(begin).Seconds(), OK: err == nil,
			}
			if err != nil {
				rep.Error = err.Error()
				summary.Failures++
				summary.OK = false
				fmt.Fprintf(os.Stderr, "FAIL %-5s over %s: %v\n", w, sp, err)
			}
			summary.Cells = append(summary.Cells, rep)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			fmt.Fprintf(os.Stderr, "soak: encoding summary: %v\n", err)
			os.Exit(2)
		}
	}
	if summary.Failures > 0 {
		os.Exit(1)
	}
	fmt.Fprintln(out, "soak: all properties held")
}

// floodRing is the consumer's L2 ring in the flood and sweep cells: small,
// so the slowed consumer spills into the capped overflow queue at once.
const floodRing = 64

// runFlood: one producer floods one consumer that executes every message
// `slow` late. The strictest cell — the residency bound is tight and
// exactly-once is checked per message id.
func runFlood(spec string, d, slow time.Duration, fcc flowctl.Config, agc *aggregate.Config) error {
	res, err := scenario.Flood(scenario.FloodConfig{
		Transport: spec, Duration: d, Bytes: 8, Slow: slow,
		RingSize: floodRing, FlowControl: &fcc, Aggregation: agc,
	})
	if err != nil {
		return err
	}
	elapsed := (res.Send + res.Drain).Seconds()
	fmt.Fprintf(out, "flood over %-45s %8d msgs in %5.1fs (%6.0f/s), peak resident %d/bound %d, reorder %d/cap %d, parked %d\n",
		spec+":", res.Sent, elapsed, float64(res.Distinct)/elapsed,
		res.PeakResident, res.ResidentBound, res.PeakReorder, res.ReorderCap, res.Parked)
	if res.Sent == 0 {
		return fmt.Errorf("no forward progress: nothing sent")
	}
	if err := res.ExactlyOnce(); err != nil {
		return err
	}
	return res.Bounded()
}

// runFFTSoak iterates the distributed 3D FFT with one slowed PE until the
// budget expires. Each iteration's transposes must arrive exactly once or
// the pencil completion counts wedge the engine — finishing iterations at
// all is the delivery check.
func runFFTSoak(spec string, d, slow time.Duration, fcc flowctl.Config, agc *aggregate.Config) error {
	const nodes = 4
	tr, err := transport.New(spec, nodes, 1)
	if err != nil {
		return err
	}
	defer tr.Close()
	rt, err := charm.NewRuntime(converse.Config{
		Nodes: nodes, WorkersPerNode: 1, Mode: converse.ModeSMP,
		Transport: tr, FlowControl: &fcc, Aggregation: agc,
	})
	if err != nil {
		return err
	}
	m := rt.Machine()
	m.PE(1).SetInvokeDelay(slow)
	eng, err := fft3d.New(rt, nil, fft3d.Config{
		NX: 8, NY: 8, NZ: 8, Transport: fft3d.P2P,
		Input: func(x, y, z int) complex128 {
			return complex(float64(x+2*y)+0.25, float64(z-y)-0.5)
		},
	})
	if err != nil {
		return err
	}

	deadline := time.Now().Add(d)
	var iters atomic.Int64
	eng.SetOnComplete(func(pe *converse.PE, iter int) {
		iters.Store(int64(iter))
		if time.Now().After(deadline) {
			rt.Shutdown()
			return
		}
		if err := eng.Start(pe); err != nil {
			fmt.Fprintf(os.Stderr, "fft restart: %v\n", err)
			rt.Shutdown()
		}
	})

	watch := scenario.WatchResidency(m, m.NumPEs())
	watchdog := time.AfterFunc(d+60*time.Second, rt.Shutdown)
	defer watchdog.Stop()
	start := time.Now()
	rt.Run(func(pe *converse.PE) {
		if pe.Id() == 0 {
			if err := eng.Start(pe); err != nil {
				fmt.Fprintf(os.Stderr, "fft start: %v\n", err)
				rt.Shutdown()
			}
		}
	})
	elapsed := time.Since(start)
	// The FFT keeps at most one full transpose in flight per phase; the
	// flow-control caps bound each PE's share of it.
	res := watch()
	fmt.Fprintf(out, "fft   over %-45s %8d iterations in %5.1fs, peak resident %d/bound %d, reorder %d/cap %d, parked %d\n",
		spec+":", iters.Load(), elapsed.Seconds(), res.PeakResident, res.ResidentBound, res.PeakReorder,
		res.ReorderCap, m.FlowController().BlockedTotal())

	if iters.Load() < 1 {
		return fmt.Errorf("no forward progress: zero FFT iterations completed")
	}
	return res.Bounded()
}

// runMDSoak repeats short MD runs (cutoff force field, velocity Verlet)
// until the budget expires. A run only returns when every patch exchange
// and reduction completed, so completed runs are the progress/delivery
// check; energies must stay finite.
func runMDSoak(spec string, d, slow time.Duration, fcc flowctl.Config, agc *aggregate.Config) error {
	deadline := time.Now().Add(d)
	sims := 0
	var peakResident, peakReorder int64
	start := time.Now()
	for sims == 0 || time.Now().Before(deadline) {
		tr, err := transport.New(spec, 2, 2)
		if err != nil {
			return err
		}
		sys := md.WaterBox(md.WaterBoxConfig{Molecules: 40, Seed: int64(sims + 1)})
		sim, err := mdsim.New(mdsim.Config{
			System:    sys,
			Nonbonded: md.NonbondedParams{Cutoff: 4, SwitchDist: 3.2},
			DT:        2e-4, Steps: 3,
			Runtime: converse.Config{
				Nodes: 2, WorkersPerNode: 2, Mode: converse.ModeSMP,
				Transport: tr, FlowControl: &fcc, Aggregation: agc,
			},
		})
		if err != nil {
			tr.Close()
			return err
		}
		m := sim.Runtime().Machine()
		m.PE(1).SetInvokeDelay(slow)
		watch := scenario.WatchResidency(m, m.NumPEs())
		rep := sim.Run()
		res := watch()
		tr.Close()
		peakResident = max(peakResident, res.PeakResident)
		peakReorder = max(peakReorder, res.PeakReorder)
		if math.IsNaN(rep.Total()) || math.IsInf(rep.Total(), 0) {
			return fmt.Errorf("md run %d produced non-finite energy %g", sims, rep.Total())
		}
		sims++
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "md    over %-45s %8d runs in %5.1fs, peak resident %d, reorder peak %d\n",
		spec+":", sims, elapsed.Seconds(), peakResident, peakReorder)
	if sims < 1 {
		return fmt.Errorf("no forward progress: zero MD runs completed")
	}
	return nil
}

// runSweep steps offered load across the slowed consumer's capacity and
// tabulates achieved throughput — the saturation curve for EXPERIMENTS.md.
// Below the knee the runtime keeps up; above it, delivery plateaus at the
// consumer's capacity while the resident backlog stays pinned at the
// flow-control bound instead of growing with the excess.
func runSweep(spec string, slow time.Duration, fcc flowctl.Config, agc *aggregate.Config, budget time.Duration) {
	// The consumer's delay is a time.Sleep whose effective cost is
	// dominated by timer granularity at microsecond settings — calibrate
	// the real per-message cost instead of trusting 1/slow.
	begin := time.Now()
	const calRounds = 50
	for i := 0; i < calRounds; i++ {
		time.Sleep(slow)
	}
	capacity := float64(calRounds) / time.Since(begin).Seconds()
	multipliers := []float64{0.25, 0.5, 1, 2, 4, 8}
	cell := budget / time.Duration(len(multipliers))
	if cell < time.Second {
		cell = time.Second
	}
	fmt.Fprintf(out, "saturation sweep over %s: consumer capacity ≈ %.0f msg/s (nominal delay %v), window %d, overflow cap %d\n",
		spec, capacity, slow, fcc.Window, fcc.OverflowCap)
	fmt.Fprintf(out, "%14s %14s %14s %14s %10s %10s\n", "offered msg/s", "achieved msg/s", "utilization", "peak resident", "parked", "retries")
	for _, mult := range multipliers {
		offered := capacity * mult
		// What the slowed consumer executed inside the send window is the
		// achieved rate; the drain afterwards is not part of it.
		res, err := scenario.Flood(scenario.FloodConfig{
			Transport: spec, Duration: cell, Rate: offered, Bytes: 8, Slow: slow,
			RingSize: floodRing, FlowControl: &fcc, Aggregation: agc,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep cell %.0f/s: %v\n", offered, err)
			os.Exit(1)
		}
		achieved := float64(res.InWindow) / res.Send.Seconds()
		fmt.Fprintf(out, "%14.0f %14.0f %13.0f%% %14d %10d %10d\n",
			offered, achieved, 100*achieved/offered, res.PeakResident, res.Parked, res.Retries)
	}
}
