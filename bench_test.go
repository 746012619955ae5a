// Package blueq's root benchmark harness: one testing.B benchmark per
// table and figure of the paper (DESIGN.md's per-experiment index). Each
// benchmark either drives the calibrated machine model at full BG/Q scale
// or exercises the native runtime, and reports the paper-comparable metric
// via b.ReportMetric so `go test -bench` output reads like the paper's
// tables.
package blueq

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blueq/internal/charm"
	"blueq/internal/cluster"
	"blueq/internal/converse"
	"blueq/internal/fft3d"
	"blueq/internal/flowctl"
	"blueq/internal/lb"
	"blueq/internal/m2m"
	"blueq/internal/md"
	"blueq/internal/mdsim"
	"blueq/internal/mempool"
	"blueq/internal/scenario"
	"blueq/internal/trace"
	"blueq/internal/transport"
)

// ---------------------------------------------------------------------------
// E1 / Fig 4: inter-node ping-pong latency, three runtime modes.

func BenchmarkFig4PingPongInterNode(b *testing.B) {
	m := cluster.BGQ()
	for _, mode := range []converse.Mode{converse.ModeNonSMP, converse.ModeSMP, converse.ModeSMPComm} {
		for _, size := range []int{16, 512, 16384, 262144} {
			b.Run(fmt.Sprintf("%s/%dB", mode, size), func(b *testing.B) {
				var lat float64
				for i := 0; i < b.N; i++ {
					lat = m.PingPongInterNode(mode, size)
				}
				b.ReportMetric(lat*1e6, "us-oneway")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E2 / Fig 5: intra-node ping-pong — native pointer-exchange measurement.

// The Fig 5 machine: one node, two worker PEs, so every hop of
// scenario.PingPong is a pointer exchange through the destination's
// lockless queue. fig5Bare, fig5CRC and fig5LB are the six cells (× SMP /
// SMP+comm) whose steady state must not allocate — every hop draws its
// envelope from the sending PE's §III-B pool and the executed envelope
// recycles via the scheduler's release-after-execute. TestFig5ZeroAllocs
// asserts that contract on every host; the benchmarks below time the same
// cells, with internal/obs off like every root benchmark.

var fig5Modes = []converse.Mode{converse.ModeSMP, converse.ModeSMPComm}

// fig5PingPong is the measured loop: b.N hops on a built machine, through
// the run function of whatever layer the cell attached.
func fig5PingPong(b *testing.B, m *converse.Machine, run func(main func(pe *converse.PE))) {
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := scenario.PingPong(m, run, b.N); err != nil {
		b.Fatal(err)
	}
}

func fig5Machine(b *testing.B, cfg converse.Config) *converse.Machine {
	m, err := converse.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func fig5Bare(b *testing.B, mode converse.Mode) {
	m := fig5Machine(b, converse.Config{Nodes: 1, WorkersPerNode: 2, Mode: mode})
	fig5PingPong(b, m, m.Run)
}

// fig5Flow arms credit-based flow control. On an uncontended machine the
// credits must be invisible — intra-node sends never touch a window, and
// the only added fast-path cost is the predicated fc != nil branch.
func fig5Flow(b *testing.B, mode converse.Mode) {
	m := fig5Machine(b, converse.Config{Nodes: 1, WorkersPerNode: 2, Mode: mode, FlowControl: &flowctl.Config{}})
	fig5PingPong(b, m, m.Run)
	if fc := m.FlowController(); fc.BlockedTotal() != 0 || fc.ShedCount() != 0 {
		b.Fatalf("uncontended ping-pong parked %d / shed %d — flow control interfered",
			fc.BlockedTotal(), fc.ShedCount())
	}
}

// fig5CRC builds the machine over an unreliable transport, which arms the
// PAMI reliability sublayer and the wire CRC32C (the software stand-in for
// the MU's hardware ECC). unreliable=1 forces the arming with every fault
// rate at zero, so the cell isolates the integrity machinery's standing
// cost: intra-node hops must remain pointer exchanges with the checksum
// armed at the wire layer.
func fig5CRC(b *testing.B, mode converse.Mode) {
	tr, err := transport.New("faulty:seed=1,unreliable=1", 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	m := fig5Machine(b, converse.Config{Nodes: 1, WorkersPerNode: 2, Mode: mode, Transport: tr})
	fig5PingPong(b, m, m.Run)
	if !m.PAMIClient().CRCArmed() {
		b.Fatal("CRC not armed over the unreliable transport")
	}
}

// fig5LB arms the dynamic load balancer in its barrier-free diffusion mode
// over an idle managed array. The gossip loop ticks throughout and the
// per-element load meter is wired into the scheduler, but a balanced
// machine must pay nothing on the message path — and trigger zero
// migrations for an imbalance that isn't there.
func fig5LB(b *testing.B, mode converse.Mode) {
	rt, err := charm.NewRuntime(converse.Config{Nodes: 1, WorkersPerNode: 2, Mode: mode})
	if err != nil {
		b.Fatal(err)
	}
	mgr := lb.Attach(rt, lb.Config{Diffusion: true, Period: 500 * time.Microsecond})
	a := rt.NewArray("lbidle", 2, func(idx int) charm.Element { return &struct{}{} })
	mgr.Manage(a, -1)
	fig5PingPong(b, rt.Machine(), rt.Run)
	if mgr.Moves() != 0 {
		b.Fatalf("idle balancer migrated %d elements during a balanced ping-pong", mgr.Moves())
	}
}

func benchFig5(b *testing.B, cell func(*testing.B, converse.Mode)) {
	for _, mode := range fig5Modes {
		b.Run(mode.String(), func(b *testing.B) { cell(b, mode) })
	}
}

func BenchmarkFig5PingPongIntraNode(b *testing.B)     { benchFig5(b, fig5Bare) }
func BenchmarkFig5PingPongIntraNodeFlow(b *testing.B) { benchFig5(b, fig5Flow) }
func BenchmarkFig5PingPongIntraNodeCRC(b *testing.B)  { benchFig5(b, fig5CRC) }
func BenchmarkFig5PingPongIntraNodeLB(b *testing.B)   { benchFig5(b, fig5LB) }

// TestFig5ZeroAllocs is the §III-B pooled-envelope contract as a tier-1
// test: in each of the six cells a full testing.Benchmark run of the hop
// must report 0 allocs/op. One heap allocation per hop anywhere on the
// send→execute path — a boxed payload, an envelope that bypasses
// pe.NewMessage — reads as ≥ 1 here.
func TestFig5ZeroAllocs(t *testing.T) {
	cells := []struct {
		name string
		cell func(*testing.B, converse.Mode)
	}{{"bare", fig5Bare}, {"CRC", fig5CRC}, {"LB", fig5LB}}
	for _, c := range cells {
		for _, mode := range fig5Modes {
			t.Run(c.name+"/"+mode.String(), func(t *testing.T) {
				res := testing.Benchmark(func(b *testing.B) { c.cell(b, mode) })
				if res.N == 0 {
					t.Fatal("the benchmark itself failed") // its b.Fatal output is above
				}
				if a := res.AllocsPerOp(); a != 0 {
					t.Fatalf("%d allocs/op over %d hops (%d B/op), want 0", a, res.N, res.AllocedBytesPerOp())
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E3 / Fig 6: the 64-thread alloc/free pattern, native wall clock.

func benchAllocPattern(b *testing.B, a mempool.Allocator, threads int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		exchange := make([][]*mempool.Buffer, threads)
		var wg sync.WaitGroup
		wg.Add(threads)
		for tid := 0; tid < threads; tid++ {
			go func(tid int) {
				defer wg.Done()
				bufs := make([]*mempool.Buffer, 100)
				for k := range bufs {
					bufs[k] = a.Alloc(tid, 512)
				}
				exchange[tid] = bufs
			}(tid)
		}
		wg.Wait()
		wg.Add(threads)
		for tid := 0; tid < threads; tid++ {
			go func(tid int) {
				defer wg.Done()
				for _, buf := range exchange[(tid+1)%threads] {
					a.Free(tid, buf)
				}
			}(tid)
		}
		wg.Wait()
	}
}

func BenchmarkFig6AllocPool64Threads(b *testing.B) {
	benchAllocPattern(b, mempool.NewPoolAllocator(64, 0), 64)
}

func BenchmarkFig6AllocArena64Threads(b *testing.B) {
	benchAllocPattern(b, mempool.NewArenaAllocator(64, 8), 64)
}

// ---------------------------------------------------------------------------
// E4 / Table I: 3D FFT p2p vs m2m — model at BG/Q scale plus a native run.

func BenchmarkTable1FFTModel(b *testing.B) {
	m := cluster.BGQ()
	for _, n := range []int{128, 64, 32} {
		for _, nodes := range []int{64, 1024} {
			for _, m2mOn := range []bool{false, true} {
				name := fmt.Sprintf("N=%d/nodes=%d/%v", n, nodes, map[bool]string{true: "m2m", false: "p2p"}[m2mOn])
				b.Run(name, func(b *testing.B) {
					var t float64
					for i := 0; i < b.N; i++ {
						t = m.FFT3DStep(cluster.FFTConfig{N: n, Nodes: nodes, M2M: m2mOn}).Total
					}
					b.ReportMetric(t*1e6, "us-step")
				})
			}
		}
	}
}

func BenchmarkTable1FFTNative(b *testing.B) {
	for _, tr := range []fft3d.Transport{fft3d.P2P, fft3d.M2M} {
		b.Run(tr.String(), func(b *testing.B) {
			rt, err := charm.NewRuntime(converse.Config{
				Nodes: 2, WorkersPerNode: 4, Mode: converse.ModeSMPComm, CommThreads: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			var mgr *m2m.Manager
			if tr == fft3d.M2M {
				mgr = m2m.NewManager(rt.Machine())
			}
			eng, err := fft3d.New(rt, mgr, fft3d.Config{NX: 16, NY: 16, NZ: 16, Transport: tr,
				Input: func(x, y, z int) complex128 { return complex(float64(x-y+z), 0) }})
			if err != nil {
				b.Fatal(err)
			}
			iters := b.N
			eng.SetOnComplete(func(pe *converse.PE, iter int) {
				if iter >= iters {
					rt.Shutdown()
					return
				}
				_ = eng.Start(pe)
			})
			b.ResetTimer()
			rt.Run(func(pe *converse.PE) { _ = eng.Start(pe) })
		})
	}
}

// ---------------------------------------------------------------------------
// E5 / Fig 7: ApoA1 configurations.

func BenchmarkFig7Configs(b *testing.B) {
	m := cluster.BGQ()
	configs := map[string]cluster.NodeConfig{
		"64w":     {Workers: 64, UseL2Queues: true},
		"48w+16c": {Workers: 48, CommThreads: 16, UseL2Queues: true},
		"16x4":    {ProcsPerNode: 16, Workers: 4, UseL2Queues: true},
	}
	for name, cfg := range configs {
		for _, nodes := range []int{64, 512} {
			b.Run(fmt.Sprintf("%s/nodes=%d", name, nodes), func(b *testing.B) {
				var t float64
				for i := 0; i < b.N; i++ {
					t = m.NAMDStep(cluster.NAMDConfig{System: md.ApoA1(), Nodes: nodes, Cfg: cfg, PMEEvery: 4}).Total
				}
				b.ReportMetric(t*1e3, "ms-step")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E6 / Fig 8: L2 atomics ablation at 512 nodes.

func BenchmarkFig8L2Atomics(b *testing.B) {
	m := cluster.BGQ()
	for _, l2 := range []bool{true, false} {
		name := map[bool]string{true: "l2", false: "mutex"}[l2]
		b.Run(name, func(b *testing.B) {
			cfg := cluster.NodeConfig{Workers: 64, UseL2Queues: l2}
			var t float64
			for i := 0; i < b.N; i++ {
				t = m.NAMDStep(cluster.NAMDConfig{System: md.ApoA1(), Nodes: 512, Cfg: cfg, PMEEvery: 4}).Total
			}
			b.ReportMetric(t*1e3, "ms-step")
		})
	}
}

// ---------------------------------------------------------------------------
// E7 / Fig 9 and E8 / Fig 10: profile peak counts.

func BenchmarkFig9Profile(b *testing.B) {
	m := cluster.BGQ()
	for _, comm := range []bool{false, true} {
		name := map[bool]string{false: "no-comm", true: "comm"}[comm]
		b.Run(name, func(b *testing.B) {
			cfg := cluster.NodeConfig{Workers: 64, UseL2Queues: true}
			if comm {
				cfg = cluster.NodeConfig{Workers: 48, CommThreads: 16, UseL2Queues: true}
			}
			var peaks int
			for i := 0; i < b.N; i++ {
				tl, _ := m.BuildTimeline(cluster.ProfileOptions{Nodes: 512, Cfg: cfg, WindowMS: 30, PMEEvery: 4})
				peaks = trace.Peaks(tl.Profile(400, 0, 30e-3), 0.55)
			}
			b.ReportMetric(float64(peaks), "peaks-30ms")
		})
	}
}

func BenchmarkFig10PMETransport(b *testing.B) {
	m := cluster.BGQ()
	for _, m2mOn := range []bool{false, true} {
		name := map[bool]string{false: "std-pme", true: "m2m-pme"}[m2mOn]
		b.Run(name, func(b *testing.B) {
			cfg := cluster.NodeConfig{Workers: 32, CommThreads: 8, UseL2Queues: true, UseM2MPME: m2mOn}
			var steps float64
			for i := 0; i < b.N; i++ {
				t := m.NAMDStep(cluster.NAMDConfig{System: md.ApoA1(), Nodes: 1024, Cfg: cfg, PMEEvery: 4}).Total
				steps = 15e-3 / t
			}
			b.ReportMetric(steps, "steps-15ms")
		})
	}
}

// ---------------------------------------------------------------------------
// E9 / Fig 11: ApoA1 scaling anchors (BG/Q vs BG/P).

func BenchmarkFig11ApoA1Scaling(b *testing.B) {
	for _, machine := range []cluster.Machine{cluster.BGQ(), cluster.BGP()} {
		for _, nodes := range []int{64, 1024, 4096} {
			b.Run(fmt.Sprintf("%s/nodes=%d", machine.Name, nodes), func(b *testing.B) {
				var t float64
				for i := 0; i < b.N; i++ {
					t = machine.NAMDStep(cluster.NAMDConfig{
						System: md.ApoA1(), Nodes: nodes,
						Cfg: bestCfg(machine, nodes), PMEEvery: 4,
					}).Total
				}
				b.ReportMetric(t*1e6, "us-step")
			})
		}
	}
}

// bestCfg mirrors cluster.bestConfig for the benchmarks (unexported there).
func bestCfg(m cluster.Machine, nodes int) cluster.NodeConfig {
	maxT := m.CoresPerNode * m.ThreadsPerCore
	switch {
	case nodes < 256 || m.ThreadsPerCore == 1:
		return cluster.NodeConfig{Workers: maxT, UseL2Queues: true, UseM2MPME: nodes >= 128}
	case nodes < 2048:
		return cluster.NodeConfig{Workers: maxT / 2, CommThreads: 8, UseL2Queues: true, UseM2MPME: true}
	default:
		return cluster.NodeConfig{Workers: maxT / 4, CommThreads: 8, UseL2Queues: true, UseM2MPME: true}
	}
}

// ---------------------------------------------------------------------------
// E10 / Fig 12 and E11 / Table II: STMV systems.

func BenchmarkFig12STMV20M(b *testing.B) {
	m := cluster.BGQ()
	for _, nodes := range []int{4096, 16384} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				t = m.NAMDStep(cluster.NAMDConfig{System: md.STMV20M(), Nodes: nodes, Cfg: bestCfg(m, nodes), PMEEvery: 4}).Total
			}
			b.ReportMetric(t*1e3, "ms-step")
		})
	}
}

func BenchmarkTable2STMV100M(b *testing.B) {
	m := cluster.BGQ()
	rows := []struct{ nodes, threads int }{{2048, 48}, {16384, 32}}
	for _, rc := range rows {
		b.Run(fmt.Sprintf("nodes=%d", rc.nodes), func(b *testing.B) {
			cfg := cluster.NodeConfig{Workers: rc.threads - 8, CommThreads: 8, UseL2Queues: true, UseM2MPME: true}
			var t float64
			for i := 0; i < b.N; i++ {
				t = m.NAMDStep(cluster.NAMDConfig{System: md.STMV100M(), Nodes: rc.nodes, Cfg: cfg, PMEEvery: 4}).Total
			}
			b.ReportMetric(t*1e3, "ms-step")
		})
	}
}

// ---------------------------------------------------------------------------
// E12 / §IV-B.1: the NAMD interpolation table vs direct erfc on the host,
// plus the full native parallel MD step.

func BenchmarkErfcTable(b *testing.B) {
	s := md.WaterBox(md.WaterBoxConfig{Molecules: 400, Seed: 1})
	for _, c := range []struct {
		name string
		bins int
	}{{"direct", 0}, {"table", 768}} {
		b.Run(c.name, func(b *testing.B) {
			p := md.NonbondedParams{Cutoff: 6, SwitchDist: 5, EwaldBeta: 0.35, TableBins: c.bins}
			f := md.NewForces(s.N())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Reset()
				md.ComputeNonbonded(s, p, f)
			}
		})
	}
}

func BenchmarkNativeParallelMDStep(b *testing.B) {
	sys := md.WaterBox(md.WaterBoxConfig{Molecules: 64, Seed: 2})
	sys.Thermalize(0.3, rand.New(rand.NewSource(3)))
	sim, err := mdsim.New(mdsim.Config{
		System:    sys,
		Nonbonded: md.NonbondedParams{Cutoff: 4, SwitchDist: 3.2, EwaldBeta: 0.8},
		DT:        1e-4,
		Steps:     b.N,
		PME: &mdsim.PMEConfig{
			Grid: [3]int{16, 16, 16}, Order: 4, Beta: 0.8, Every: 4, Transport: fft3d.M2M,
		},
		Runtime: converse.Config{Nodes: 2, WorkersPerNode: 4, Mode: converse.ModeSMPComm, CommThreads: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	rep := sim.Run()
	b.ReportMetric(time.Since(start).Seconds()/float64(rep.Steps+1)*1e3, "ms-step")
}
