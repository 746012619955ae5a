package main

import (
	"fmt"

	"blueq/internal/aggregate"
	"blueq/internal/cluster"
	"blueq/internal/md"
	"blueq/internal/stats"
	"blueq/internal/trace"
)

// section is one entry of the suite: -only's key, the banner, and the code.
type section struct {
	key, title string
	run        func()
}

// model is a section that prints one table of the calibrated machine model
// (at its default sizes or node counts) and the paper's values for it.
func model(table func([]int) *stats.Table, paper ...string) func() {
	return func() {
		fmt.Println(table(nil))
		for _, line := range paper {
			fmt.Println("paper: " + line)
		}
	}
}

// sections is the suite in EXPERIMENTS.md order. -only's help text, its
// dispatch and the full run all read this one table; o is read when a
// section runs, after flag.Parse.
func sections(o *options) []section {
	m := cluster.BGQ()
	return []section{
		{"fig4", "E1: Fig 4 — inter-node ping-pong (modelled)",
			model(m.Fig4,
				"<32B: nonSMP 2.9us, SMP 3.3us, SMP+comm 3.7us; comm best 32B-16KB; modes converge >16KB")},
		{"fig5", "E2: Fig 5 — intra-node ping-pong (modelled)",
			model(m.Fig5,
				"same-process 1.1us (1.3us with comm threads), size-independent")},
		{"pingpong", "E2 native: ping-pong over -transport in three modes, exactly-once verified (scenario.PingPong)",
			o.pingPongSection},
		{"fig6", "E3: Fig 6 — 64-thread malloc/free (native exchange + model)",
			func() { fig6Section(m) }},
		{"table1", "E4: Table I — 3D FFT p2p vs m2m (modelled)",
			model(func([]int) *stats.Table { return m.TableI() },
				"64 nodes: 128³ 3030/1826, 64³ 787/507, 32³ 457/142",
				"1024 nodes: 128³ 1560/583, 64³ 621/208, 32³ 377/74")},
		{"fft3d", "E4 native: 16³ 3D FFT on 8 PEs, p2p vs m2m (internal/fft3d)",
			fft3dSection},
		{"fig7", "E5: Fig 7 — ApoA1 process/thread configurations (modelled)",
			model(m.Fig7,
				"64 threads best when compute-bound; comm threads best when communication-bound")},
		{"fig8", "E6: Fig 8 — L2 atomics ablation (modelled)",
			model(m.Fig8,
				"at 512 nodes L2 atomics speed up one process per node by 67%")},
		{"fig9", "E7: Fig 9 — 512-node time profile ± comm threads (modelled)",
			func() { fig9Section(m) }},
		{"fig10", "E8: Fig 10 — standard vs m2m PME at 1024 nodes (modelled)",
			func() { fig10Section(m) }},
		{"fig11", "E9: Fig 11 — ApoA1 scaling, BG/Q vs BG/P (modelled)",
			model(cluster.Fig11,
				"best 683 us/step at 4096 BG/Q nodes (PME every 4); speedups 2495@1024, 3981@4096")},
		{"fig12", "E10: Fig 12 — STMV 20M scaling (modelled)",
			model(m.Fig12,
				"5.8 ms/step at 16384 nodes")},
		{"table2", "E11: Table II — STMV 100M (modelled)",
			model(func([]int) *stats.Table { return m.TableII() },
				"98.8 / 55.4 / 30.3 / 17.9 ms; speedups 32768 / 58438 / 106847 / 180864")},
		{"serial", "E12: serial kernel ablation (§IV-B.1)",
			func() { serialSection(m) }},
		{"ablations", "ablations beyond the paper's figures",
			func() {
				fmt.Println(m.CommThreadSweep(1024))
				fmt.Println(m.WorkerSMTSweep(4096))
				fmt.Println(m.PMEEverySweep(4096))
				fmt.Println("paper anchors: 683 us/step with PME every 4 steps, 782 us/step with PME every step")
			}},
		{"obs", "E13: native runtime observability (internal/obs)",
			o.obsSection},
		{"ft", "E14: PE failure mid-3D-FFT — detect, restore, replay (internal/ft)",
			func() { ftRecovery(o.rt.Seed, o.det) }},
		{"agg", "E16: message aggregation — flood msgs/sec vs payload size (internal/aggregate)",
			func() { aggSweep(o.aggMsgs, aggregate.Config{MaxBatchBytes: o.rt.AggBytes, MaxDelay: o.rt.AggDelay}) }},
		{"integrity", "E17: wire+checkpoint integrity and cascading-failure recovery (internal/pami, internal/ft)",
			func() { integritySection(o.rt.Seed) }},
		{"linkft", "E18: link failures — fail-aware routing, gray links, partitions (internal/torus, internal/ft)",
			func() { linkftSection(o.rt.Seed) }},
		{"lb", "E19: dynamic load balancing — LB off vs centralized vs diffusion (internal/lb)",
			func() { lbSection(o.rt.Seed) }},
	}
}

func fig9Section(m cluster.Machine) {
	fmt.Println("Fig 9: ApoA1 on 512 nodes, 30ms window, with and without comm threads")
	for _, cfg := range []cluster.NodeConfig{
		{Workers: 64, UseL2Queues: true},
		{Workers: 48, CommThreads: 16, UseL2Queues: true},
	} {
		tl, b := m.BuildTimeline(cluster.ProfileOptions{Nodes: 512, Cfg: cfg, WindowMS: 30, PMEEvery: 4})
		peaks := trace.Peaks(tl.Profile(400, 0, 30e-3), 0.55)
		fmt.Printf("config %-9s step %.3f ms, %d timestep peaks in 30 ms\n", cfg, b.Total*1e3, peaks)
		fmt.Println(tl.RenderProfile(100, 0, 30e-3))
	}
	fmt.Println("paper: utilization greatly improved by comm threads (more peaks in the window)")
}

func fig10Section(m cluster.Machine) {
	fmt.Println("Fig 10: ApoA1 on 1024 nodes, 15ms window, standard vs m2m PME")
	for _, m2m := range []bool{false, true} {
		cfg := cluster.NodeConfig{Workers: 32, CommThreads: 8, UseL2Queues: true, UseM2MPME: m2m}
		tl, b := m.BuildTimeline(cluster.ProfileOptions{Nodes: 1024, Cfg: cfg, WindowMS: 15, PMEEvery: 4})
		peaks := trace.Peaks(tl.Profile(400, 0, 15e-3), 0.55)
		label := "standard PME"
		if m2m {
			label = "m2m PME"
		}
		fmt.Printf("%-12s step %.3f ms (PME step %.3f ms), %d timesteps in 15 ms\n",
			label, b.Total*1e3, b.PMEFull*1e3, peaks)
		fmt.Println(tl.RenderTimeline(100, 8, 0, 15e-3))
	}
	fmt.Println("paper: 9 timesteps with m2m vs 7 with standard PME in the 15 ms window")
}

func serialSection(m cluster.Machine) {
	fmt.Println("Serial kernel ablation (paper §IV-B.1):")
	base := m.NAMDStep(cluster.NAMDConfig{System: md.ApoA1(), Nodes: 1, Cfg: cluster.NodeConfig{Workers: 1}})
	noqpx := m.NAMDStep(cluster.NAMDConfig{System: md.ApoA1(), Nodes: 1, Cfg: cluster.NodeConfig{Workers: 1}, NoQPX: true})
	fmt.Printf("  QPX+unroll serial gain: %.1f%% (paper: 15.8%%)\n",
		(noqpx.Compute/base.Compute-1)*100)
	fmt.Printf("  4 threads/core vs 1: %.2fx (paper: 2.3x)\n", m.SMTYield(4))
	fmt.Println("  (native half, interpolation table vs direct erfc: go test -bench ErfcTable -run '^$' .)")
}
