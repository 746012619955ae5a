package main

import (
	"fmt"
	"log"

	"blueq/internal/charm"
	"blueq/internal/ft"
	"blueq/internal/scenario"
	"blueq/internal/torus"
	"blueq/internal/transport"
)

// E18: link-level fault tolerance. BG/Q's network recomputes routes around
// failed wires without involving the application; this section measures the
// repo's substitute — the fail-aware router in internal/torus plus the
// link/node disambiguation in internal/ft — on two axes:
//
//   - throughput vs number of failed links: an 8-node 16³ FFT with k links
//     cut before the run starts, tabulating achieved iteration rate and how
//     much traffic the router moved to rotated-minimal vs non-minimal
//     (detour) routes. The graph stays connected, so every run must finish
//     with zero recoveries.
//   - reroute vs recovery: the 4-node cell with faults injected mid-run.
//     One dead link must be absorbed by rerouting (no rollback, bitwise
//     identical to the clean run); severing a node's every link must take
//     the partition verdict into the same recovery path a fail-stop takes,
//     with the time from fault to restart reported.

// linkftSection prints both E18 tables.
func linkftSection(seed int64) {
	linkThroughput(seed)
	fmt.Println()
	linkRecovery(seed)
}

// pickSurvivableLinks fails up to k physical links chosen so the machine
// stays fully connected (a cut that would partition any pair is healed and
// skipped). Returns the links actually failed.
func pickSurvivableLinks(tor *torus.Torus, nodes, k int) [][2]int {
	allReachable := func() bool {
		for b := 1; b < nodes; b++ {
			if !tor.Reachable(0, b) {
				return false
			}
		}
		return true
	}
	var failed [][2]int
	for a := 0; a < nodes && len(failed) < k; a++ {
		for b := a + 1; b < nodes && len(failed) < k; b++ {
			if err := tor.FailLink(a, b); err != nil {
				continue // not a physical link
			}
			if !allReachable() {
				_ = tor.HealLink(a, b)
				continue
			}
			failed = append(failed, [2]int{a, b})
		}
	}
	return failed
}

// linkFFTRun drives one FFT run over the lossy (reliability-armed)
// transport under the given fault schedule.
func linkFFTRun(seed int64, nodes, iters int, f scenario.Faults) scenario.Result {
	res, err := scenario.FFT(scenario.FFTConfig{
		Nodes: nodes, Iters: iters, Faults: f,
		Transport: transport.WithSeed("faulty:unreliable=1", seed),
	})
	if err != nil {
		log.Fatalf("linkft: %v", err)
	}
	return res
}

// failLinks is a mid-run hook taking the given links out of service.
func failLinks(links ...[2]int) func(*charm.Runtime, *ft.Manager) {
	return func(rt *charm.Runtime, _ *ft.Manager) {
		for _, l := range links {
			if err := rt.Machine().Torus().FailLink(l[0], l[1]); err != nil {
				log.Fatalf("FailLink(%d,%d): %v", l[0], l[1], err)
			}
		}
	}
}

// linkThroughput: 8-node 16³ FFT with k pre-failed (connectivity-preserving)
// links. The router steers every crossing onto surviving routes, so
// throughput degrades smoothly and no recovery ever fires.
func linkThroughput(seed int64) {
	const (
		nodes = 8
		nx    = 16
		iters = 6
	)
	fmt.Printf("fixed-work FFT (%d nodes, %d³, %d iterations) vs failed links; the cut set always leaves the machine connected\n",
		nodes, nx, iters)
	fmt.Printf("%-22s %12s %12s %10s %10s %10s %12s\n",
		"failed links", "elapsed ms", "iters/s", "reroutes", "minimal", "detours", "recoveries")
	ok := true
	for k := 0; k <= 3; k++ {
		var cut [][2]int
		var f scenario.Faults
		if k > 0 {
			want := k
			f.Pre = func(rt *charm.Runtime, _ *ft.Manager) {
				cut = pickSurvivableLinks(rt.Machine().Torus(), nodes, want)
			}
		}
		res := linkFFTRun(seed, nodes, iters, f)
		if res.Stats.Recoveries != 0 || res.Stats.Confirmations != 0 {
			ok = false
		}
		label := fmt.Sprintf("%d", k)
		if len(cut) > 0 {
			label = fmt.Sprintf("%d %v", len(cut), cut)
		}
		fmt.Printf("%-22s %12.1f %12.1f %10d %10d %10d %12d\n",
			label, ms(res.Elapsed), float64(iters)/res.Elapsed.Seconds(),
			res.Reroutes, res.Reroutes-res.Detours, res.Detours, res.Stats.Recoveries)
	}
	if !ok {
		log.Fatal("linkft: a connectivity-preserving link cut triggered a recovery")
	}
	fmt.Println("paper: BG/Q reroutes around failed wires in the network layer; applications see reduced bandwidth, not faults")
}

// linkRecovery: the 4-node cell (links 0-1, 1-3, 2-3, 0-2), faults injected
// after iteration 3 launches. One dead link ends in a reroute; node 1 losing
// both its links ends in the node-death recovery path via the partition
// verdict.
func linkRecovery(seed int64) {
	const (
		nodes = 4
		nx    = 16
		iters = 6
	)
	ref, err := scenario.Reference(linkFFTRun(seed, nodes, iters, scenario.Faults{}), nil)
	if err != nil {
		log.Fatalf("linkft: %v", err)
	}
	fmt.Printf("mid-run link faults on the 4-node cell (%d³ FFT, fault injected as iteration 4 starts)\n", nx)
	fmt.Printf("%-24s %12s %12s %10s %10s %12s %12s %10s\n",
		"scenario", "elapsed ms", "recover ms", "reroutes", "detours", "recoveries", "partitions", "bitwise")
	// row prints one scenario and reports whether it matched ref bitwise.
	row := func(name string, r scenario.Result, recoverMS string) bool {
		same := bitwise(ref, r)
		fmt.Printf("%-24s %12.1f %12s %10d %10d %12d %12d %10s\n",
			name, ms(r.Elapsed), recoverMS, r.Reroutes, r.Detours,
			r.Stats.Recoveries, r.Stats.Partitions, same)
		return same == "ok"
	}
	row("no faults", ref, "-")

	reroute := linkFFTRun(seed, nodes, iters, scenario.Faults{AtIter: 3, Mid: failLinks([2]int{0, 1})})
	rerouteSame := row("link 0-1 down", reroute, "-")
	part := linkFFTRun(seed, nodes, iters, scenario.Faults{AtIter: 3, Mid: failLinks([2]int{0, 1}, [2]int{1, 3})})
	partSame := row("node 1 partitioned", part, fmt.Sprintf("%.1f", ms(part.Recover)))

	switch {
	case reroute.Stats.Recoveries != 0 || reroute.Stats.Confirmations != 0 || reroute.Reroutes == 0:
		log.Fatalf("linkft: dead link was not absorbed by rerouting: %+v", reroute.Stats)
	case !rerouteSame:
		log.Fatal("linkft: rerouted run diverged from the clean run")
	case part.Stats.Recoveries != 1 || part.Stats.Confirmations != 1 || part.Stats.Partitions == 0:
		log.Fatalf("linkft: partition did not take the node-death recovery path: %+v", part.Stats)
	case !partSame:
		log.Fatal("linkft: partition recovery diverged from the clean run")
	}
	fmt.Println("dead link: rerouted, zero rollbacks, bitwise identical; partitioned node: confirmed via partition verdict, recovered like a fail-stop")
}
