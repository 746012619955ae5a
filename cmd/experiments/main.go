// Command experiments regenerates every table and figure of the paper in
// one run — the source of truth behind EXPERIMENTS.md. Each section prints
// the model/measurement output next to the paper's reported values.
//
// The final section runs a native workload with the internal/obs
// instrumentation enabled and writes a machine-readable metrics snapshot
// (queue, allocator and latency series) to the -metrics path, giving every
// regeneration of the experiment suite a perf-trajectory sidecar.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/cluster"
	"blueq/internal/converse"
	"blueq/internal/flowctl"
	"blueq/internal/ft"
	"blueq/internal/mempool"
	"blueq/internal/obs"
	"blueq/internal/scenario"
	"blueq/internal/trace"
	"blueq/internal/transport"
)

func section(title string) {
	fmt.Println()
	fmt.Println("==== " + title + " ====")
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

func main() {
	metricsPath := flag.String("metrics", "obs_metrics.json", "write the native-run obs snapshot here ('' disables)")
	spec := flag.String("transport", "inproc",
		"transport for the native run: inproc, contended[:scale=F], faulty[:seed=N,drop=F,dup=F,...]")
	seed := flag.Int64("seed", 0, "seed for faulty-transport and kill-event runs (overrides any seed= in -transport)")
	phi := flag.Float64("phi", 0, "detector PhiFactor: adaptive suspicion threshold scale (0 = default)")
	suspectAfter := flag.Duration("suspect-after", 12*time.Millisecond, "detector silence floor before suspecting a peer")
	flow := flag.Bool("flow", false, "arm credit-based flow control on the native obs run")
	fcWindow := flag.Int("fc-window", 0, "flow-control credit window per (src,dst) node pair (0 = default)")
	fcOverflowCap := flag.Int("fc-overflow-cap", 0, "flow-control cap on the lockless overflow queue (0 = default)")
	agg := flag.Bool("agg", false, "arm the per-destination message aggregation layer on the native obs run")
	aggBytes := flag.Int("agg-bytes", 0, "aggregation batch size in bytes (0 = default; implies -agg)")
	aggDelay := flag.Duration("agg-delay", 0, "aggregation max flush delay (0 = default; implies -agg)")
	aggMsgs := flag.Int("agg-msgs", 200000, "messages per E16 aggregation-sweep cell")
	// The native sections, in suite order. -only's help text, its dispatch
	// and the tail of the full suite all read this one table.
	var det ft.Config
	var agc aggregate.Config
	native := []struct {
		key, title string
		run        func()
	}{
		{"ft", "E14: PE failure mid-3D-FFT — detect, restore, replay (internal/ft)",
			func() { ftRecovery(*seed, det) }},
		{"agg", "E16: message aggregation — flood msgs/sec vs payload size (internal/aggregate)",
			func() { aggSweep(*aggMsgs, agc) }},
		{"integrity", "E17: wire+checkpoint integrity and cascading-failure recovery (internal/pami, internal/ft)",
			func() { integritySection(*seed) }},
		{"linkft", "E18: link failures — fail-aware routing, gray links, partitions (internal/torus, internal/ft)",
			func() { linkftSection(*seed) }},
		{"lb", "E19: dynamic load balancing — LB off vs centralized vs diffusion (internal/lb)",
			func() { lbSection(*seed) }},
	}
	keys := make([]string, len(native))
	for i, sec := range native {
		keys[i] = sec.key
	}
	only := flag.String("only", "", "run a single section by key ("+strings.Join(keys, ", ")+") instead of the full suite")
	flag.Parse()
	if *seed != 0 {
		*spec = transport.WithSeed(*spec, *seed)
	}
	det = ft.Config{
		HeartbeatInterval: time.Millisecond,
		SuspectAfter:      *suspectAfter,
		PhiFactor:         *phi,
	}
	var fcc *flowctl.Config
	if *flow || *fcWindow > 0 || *fcOverflowCap > 0 {
		fcc = &flowctl.Config{Window: *fcWindow, OverflowCap: *fcOverflowCap}
	}
	agc = aggregate.Config{MaxBatchBytes: *aggBytes, MaxDelay: *aggDelay}
	var obsAgc *aggregate.Config
	if *agg || *aggBytes > 0 || *aggDelay > 0 {
		obsAgc = &agc
	}
	if *only != "" {
		for _, sec := range native {
			if sec.key == *only {
				section(sec.title)
				sec.run()
				return
			}
		}
		log.Fatalf("unknown -only section %q (want %s)", *only, strings.Join(keys, ", "))
	}
	m := cluster.BGQ()

	section("E1: Fig 4 — inter-node ping-pong (modelled)")
	fmt.Println(m.Fig4(nil))
	fmt.Println("paper: <32B: nonSMP 2.9us, SMP 3.3us, SMP+comm 3.7us; comm best 32B-16KB; modes converge >16KB")

	section("E2: Fig 5 — intra-node ping-pong (modelled)")
	fmt.Println(m.Fig5(nil))
	fmt.Println("paper: same-process 1.1us (1.3us with comm threads), size-independent")

	section("E3: Fig 6 — 64-thread malloc/free (model; run cmd/memalloc for native)")
	pool, arena := m.Fig6Model(64)
	fmt.Printf("modelled: pool %.2f us/pair, arena %.2f us/pair (%.1fx)\n", pool, arena, arena/pool)
	fmt.Println("paper: lockless pool allocator far below GNU allocator at 64 threads")

	section("E4: Table I — 3D FFT p2p vs m2m (modelled)")
	fmt.Println(m.TableI())
	fmt.Println("paper 64 nodes: 128³ 3030/1826, 64³ 787/507, 32³ 457/142")
	fmt.Println("paper 1024 nodes: 128³ 1560/583, 64³ 621/208, 32³ 377/74")

	section("E5: Fig 7 — ApoA1 process/thread configurations (modelled)")
	fmt.Println(m.Fig7(nil))
	fmt.Println("paper: 64 threads best when compute-bound; comm threads best when communication-bound")

	section("E6: Fig 8 — L2 atomics ablation (modelled)")
	fmt.Println(m.Fig8(nil))
	fmt.Println("paper: at 512 nodes L2 atomics speed up one process per node by 67%")

	section("E7: Fig 9 — 512-node time profile ± comm threads (modelled)")
	for _, cfg := range []cluster.NodeConfig{
		{Workers: 64, UseL2Queues: true},
		{Workers: 48, CommThreads: 16, UseL2Queues: true},
	} {
		tl, b := m.BuildTimeline(cluster.ProfileOptions{Nodes: 512, Cfg: cfg, WindowMS: 30, PMEEvery: 4})
		peaks := trace.Peaks(tl.Profile(400, 0, 30e-3), 0.55)
		fmt.Printf("%-9s: step %.3f ms, %d peaks in 30 ms\n", cfg, b.Total*1e3, peaks)
	}
	fmt.Println("paper: utilization greatly improved by comm threads (more peaks in the window)")

	section("E8: Fig 10 — standard vs m2m PME at 1024 nodes (modelled)")
	for _, useM2M := range []bool{false, true} {
		cfg := cluster.NodeConfig{Workers: 32, CommThreads: 8, UseL2Queues: true, UseM2MPME: useM2M}
		tl, b := m.BuildTimeline(cluster.ProfileOptions{Nodes: 1024, Cfg: cfg, WindowMS: 15, PMEEvery: 4})
		peaks := trace.Peaks(tl.Profile(400, 0, 15e-3), 0.55)
		fmt.Printf("m2m=%-5v: step %.3f ms (PME %.3f ms), %d steps in 15 ms\n",
			useM2M, b.Total*1e3, b.PMEFull*1e3, peaks)
	}
	fmt.Println("paper: 9 timesteps with m2m vs 7 with standard PME in the 15 ms window")

	section("E9: Fig 11 — ApoA1 scaling, BG/Q vs BG/P (modelled)")
	fmt.Println(cluster.Fig11(nil))
	fmt.Println("paper: best 683 us/step at 4096 BG/Q nodes (PME every 4); speedups 2495@1024, 3981@4096")

	section("E10: Fig 12 — STMV 20M scaling (modelled)")
	fmt.Println(m.Fig12(nil))
	fmt.Println("paper: 5.8 ms/step at 16384 nodes")

	section("E11: Table II — STMV 100M (modelled)")
	fmt.Println(m.TableII())
	fmt.Println("paper: 98.8 / 55.4 / 30.3 / 17.9 ms; speedups 32768 / 58438 / 106847 / 180864")

	section("E12: serial kernel ablation (§IV-B.1)")
	fmt.Printf("QPX serial gain %.1f%% (paper 15.8%%); 4-thread SMT yield %.2fx (paper 2.3x)\n",
		(m.QPXSpeedup-1)*100, m.SMTYield(4))

	section("ablations beyond the paper's figures")
	fmt.Println(m.CommThreadSweep(1024))
	fmt.Println(m.WorkerSMTSweep(4096))
	fmt.Println(m.PMEEverySweep(4096))
	fmt.Println("paper anchors: 683 us/step with PME every 4 steps, 782 us/step with PME every step")

	if *metricsPath != "" {
		section("E13: native runtime observability (internal/obs)")
		nativeObservability(*metricsPath, *spec, fcc, obsAgc)
	}

	for _, sec := range native {
		section(sec.title)
		sec.run()
	}
}

// nativeObservability enables the obs instrumentation, drives the native
// runtime's hot paths (lockless scheduler queues, the pool allocator, the
// send→deliver latency span), and writes the registry snapshot as JSON.
func nativeObservability(path, spec string, fcc *flowctl.Config, agc *aggregate.Config) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	// Messaging: a 4-PE ring over two SMP nodes, exercising pointer
	// exchange, the PAMI path and the deliver-latency histogram. The
	// -transport flag swaps the substrate, so the sidecar also captures
	// per-transport counters (contention stalls, fault recovery).
	const rounds = 20000
	tr, err := transport.New(spec, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()
	machine, err := converse.NewMachine(converse.Config{Nodes: 2, WorkersPerNode: 2, Mode: converse.ModeSMP, Transport: tr, FlowControl: fcc, Aggregation: agc})
	if err != nil {
		log.Fatal(err)
	}
	var h int
	h = machine.RegisterHandler(func(pe *converse.PE, msg *converse.Message) {
		n := msg.Payload.(int)
		if n >= rounds {
			machine.Shutdown()
			return
		}
		reply := pe.NewMessage()
		reply.Handler = h
		reply.Bytes = 32
		reply.Payload = n + 1
		_ = pe.Send((pe.Id()+1)%machine.NumPEs(), reply)
	})
	machine.Run(func(pe *converse.PE) {
		if pe.Id() == 0 {
			first := pe.NewMessage()
			first.Handler = h
			first.Bytes = 32
			first.Payload = 0
			_ = pe.Send(1, first)
		}
	})

	// Allocator: recycle a working set through the pool so hit/miss rates
	// populate alongside the queue counters.
	pool := mempool.NewPoolAllocator(1, 0)
	var bufs []*mempool.Buffer
	for i := 0; i < 256; i++ {
		bufs = append(bufs, pool.Alloc(0, 512))
	}
	for _, b := range bufs {
		pool.Free(0, b)
	}
	for i := 0; i < 4096; i++ {
		pool.Free(0, pool.Alloc(0, 512))
	}

	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := obs.Default.WriteJSON(f, obs.SnapshotOptions{SkipZero: true}); err != nil {
		log.Fatal(err)
	}
	snap := obs.Default.Snapshot(obs.SnapshotOptions{SkipZero: true})
	fmt.Printf("wrote %s: %d metrics; deliver latency p50 <= %d ns, p99 <= %d ns over %d deliveries\n",
		path, len(snap.Metrics), deliverQuantile(0.50), deliverQuantile(0.99), deliverCount())
	fmt.Printf("transport %s: %+v\n", tr, tr.Stats())
}

// deliverQuantile and deliverCount read the converse deliver-latency
// histogram back out of the snapshot-facing accessors.
func deliverQuantile(q float64) int64 { return converse.DeliverLatencyQuantile(q) }
func deliverCount() int64             { return converse.DeliverCount() }
