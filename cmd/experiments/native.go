package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"blueq/internal/charm"
	"blueq/internal/cluster"
	"blueq/internal/converse"
	"blueq/internal/fft3d"
	"blueq/internal/m2m"
	"blueq/internal/mempool"
	"blueq/internal/obs"
	"blueq/internal/scenario"
	"blueq/internal/stats"
)

// The native halves of E2, E3, E4 and E13: wall-clock runs of the real
// runtime in this process. Absolute numbers reflect the host, not BG/Q;
// the mechanics (modes, transports, allocators, transposes) execute for
// real and the guarantees are checked.

const pingPongRounds = 2000

// exactlyOnce is the delivery contract of a finished ping-pong: the
// kickoff plus one execution per bounce. Fewer is a loss, more a duplicate
// that got past dedup — the contract a faulty transport must still honour.
func exactlyOnce(res scenario.PingPongResult, rounds int) error {
	if want := int64(rounds) + 1; res.Executed != want {
		return fmt.Errorf("executed %d messages, want exactly %d", res.Executed, want)
	}
	return nil
}

// pingPongSection bounces between two nodes in each runtime mode over the
// -transport spec (flow control and aggregation as flagged) and exits
// non-zero unless every mode delivered exactly once.
func (o *options) pingPongSection() {
	fmt.Printf("native ping-pong over %q, %d rounds (wall clock, host-dependent):\n", o.rt.Spec(), pingPongRounds)
	ok := true
	for _, mode := range []converse.Mode{converse.ModeNonSMP, converse.ModeSMP, converse.ModeSMPComm} {
		res, err := o.pingPong(2, mode, pingPongRounds)
		if err == nil {
			err = exactlyOnce(res, pingPongRounds)
		}
		if err != nil {
			fmt.Printf("  FAIL %s: %v\n", mode, err)
			ok = false
			continue
		}
		fmt.Printf("  %-9s %8.2f us one-way; %d messages executed exactly once (stats: %+v)\n",
			mode, res.Elapsed.Seconds()*1e6/pingPongRounds, res.Executed, res.Stats)
	}
	if !ok {
		log.Fatal("pingpong: exactly-once delivery violated")
	}
}

// obsSection enables the obs instrumentation, drives the native runtime's
// hot paths (lockless scheduler queues, the pool allocator, the
// send→deliver latency span), and writes the registry snapshot as JSON to
// the -metrics path — the perf-trajectory sidecar of a suite run.
func (o *options) obsSection() {
	if o.metrics == "" {
		fmt.Println("skipped: -metrics is empty")
		return
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	// Messaging: a ping-pong within one SMP node (pointer exchange), then
	// between two (the PAMI path, the deliver-latency histogram). The
	// -transport flag swaps the substrate, so the sidecar also captures
	// per-transport counters (contention stalls, fault recovery).
	const rounds = 20000
	var last scenario.PingPongResult
	for _, nodes := range []int{1, 2} {
		res, err := o.pingPong(nodes, converse.ModeSMP, rounds)
		if err != nil {
			log.Fatal(err)
		}
		last = res
	}

	// Allocator: a few rounds of the Fig 6 exchange, so pool hit/miss and
	// remote-free rates populate alongside the queue counters.
	measureExchange(mempool.NewPoolAllocator(4, 0), 4, 16)

	f, err := os.Create(o.metrics)
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.Default.WriteJSON(f, obs.SnapshotOptions{SkipZero: true}); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	snap := obs.Default.Snapshot(obs.SnapshotOptions{SkipZero: true})
	fmt.Printf("wrote %s: %d metrics; deliver latency p50 <= %d ns, p99 <= %d ns over %d deliveries\n",
		o.metrics, len(snap.Metrics), converse.DeliverLatencyQuantile(0.50), converse.DeliverLatencyQuantile(0.99), converse.DeliverCount())
	fmt.Printf("transport %s: %+v\n", o.rt.Spec(), last.Stats)
}

// fig6Section times the native Fig. 6 exchange (measureExchange) on both
// allocators and prints the modelled BG/Q numbers beside it.
func fig6Section(m cluster.Machine) {
	const iters = 50
	tab := stats.NewTable(
		"Fig 6: malloc+free cost per pair (us), native measurement\n"+
			"(all-to-all message exchange: every thread allocates buffers,\n"+
			"scatters them to all peers and frees the buffers it received —\n"+
			"the paper's §III-B traffic. Pools parallelize per-thread; the\n"+
			"glibc-style allocator funnels through 8 shared arena locks.)",
		"threads", "pool", "arena", "arena/pool")
	for _, th := range []int{1, 4, 16, 64} {
		pool := measureExchange(mempool.NewPoolAllocator(th, 4096), th, iters)
		arena := measureExchange(mempool.NewArenaAllocator(th, 8), th, iters)
		tab.AddRow(th, pool*1e6, arena*1e6, stats.Ratio(arena, pool))
	}
	fmt.Println(tab)
	mp, ma := m.Fig6Model(64)
	fmt.Printf("modelled BG/Q at 64 threads: pool %.2f us, arena %.2f us (%s)\n", mp, ma, stats.Ratio(ma, mp))
	fmt.Println("note: host ratios are milder than BG/Q's — Go's contended mutexes are far")
	fmt.Println("cheaper than BG/Q pthread mutexes, and x86 has no in-cache atomic unit;")
	fmt.Println("the modelled row carries the paper's calibrated costs.")
	fmt.Println("paper: lockless pool allocator far below GNU allocator at 64 threads")
}

// measureExchange returns mean seconds per alloc+free pair under
// all-to-all message traffic: each thread allocates perPeer buffers for
// every peer, the buffers are exchanged, and every thread frees what it
// received (returning each buffer to its owner's pool / owning arena).
func measureExchange(a mempool.Allocator, threads, iters int) float64 {
	const perPeer = 8
	const size = 512
	inbox := make([][]*mempool.Buffer, threads*threads)
	eachThread := func(f func(tid int)) {
		var wg sync.WaitGroup
		wg.Add(threads)
		for tid := 0; tid < threads; tid++ {
			go func(tid int) {
				defer wg.Done()
				f(tid)
			}(tid)
		}
		wg.Wait()
	}
	start := time.Now()
	for it := 0; it < iters; it++ {
		eachThread(func(tid int) {
			for peer := 0; peer < threads; peer++ {
				bufs := make([]*mempool.Buffer, perPeer)
				for k := range bufs {
					bufs[k] = a.Alloc(tid, size)
				}
				inbox[peer*threads+tid] = bufs
			}
		})
		eachThread(func(tid int) {
			for peer := 0; peer < threads; peer++ {
				for _, b := range inbox[tid*threads+peer] {
					a.Free(tid, b)
				}
			}
		})
	}
	pairs := float64(iters * threads * threads * perPeer)
	return time.Since(start).Seconds() / pairs
}

// fft3dSection runs the real pencil engine both ways on a small grid:
// both transports must reproduce the input after forward+backward, and the
// table shows what the transposes cost on the host.
func fft3dSection() {
	const grid, iters = 16, 200
	tab := stats.NewTable(
		fmt.Sprintf("native %d³ fwd+bwd 3D FFT on 8 PEs, %d iterations (wall clock, host-dependent)", grid, iters),
		"transport", "ms/step", "round-trip err")
	for _, tr := range []fft3d.Transport{fft3d.P2P, fft3d.M2M} {
		dur, rterr := nativeFFT(grid, tr, iters)
		tab.AddRow(tr.String(), dur.Seconds()*1e3, fmt.Sprintf("%.2e", rterr))
	}
	fmt.Println(tab)
}

func nativeFFT(n int, tr fft3d.Transport, iters int) (perIter time.Duration, roundTripErr float64) {
	rt, err := charm.NewRuntime(converse.Config{
		Nodes: 2, WorkersPerNode: 4, Mode: converse.ModeSMPComm, CommThreads: 1,
	})
	if err != nil {
		log.Fatalf("fft3d: %v", err)
	}
	var mgr *m2m.Manager
	if tr == fft3d.M2M {
		mgr = m2m.NewManager(rt.Machine())
	}
	eng, err := fft3d.New(rt, mgr, fft3d.Config{
		NX: n, NY: n, NZ: n, Transport: tr,
		Input: func(x, y, z int) complex128 {
			return complex(float64((x+2*y+3*z)%7)-3, 0)
		},
	})
	if err != nil {
		log.Fatalf("fft3d: %v", err)
	}
	iterate := func(pe *converse.PE) {
		if err := eng.Start(pe); err != nil {
			log.Fatalf("fft3d: %s: %v", tr, err)
		}
	}
	var begin time.Time
	var elapsed time.Duration
	eng.SetOnComplete(func(pe *converse.PE, iter int) {
		if iter >= iters {
			elapsed = time.Since(begin)
			rt.Shutdown()
			return
		}
		iterate(pe)
	})
	rt.Run(func(pe *converse.PE) {
		begin = time.Now()
		iterate(pe)
	})
	return elapsed / time.Duration(iters), eng.RoundTripError()
}
