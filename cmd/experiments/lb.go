package main

import (
	"fmt"
	"log"
	"time"

	"blueq/internal/lb"
	"blueq/internal/scenario"
	"blueq/internal/transport"
)

// E19: dynamic load balancing. The paper's NAMD runs lean on Charm++'s
// measurement-based balancers to keep BG/Q worker threads busy; this
// section reproduces the mechanic end to end on the native runtime: an
// imbalanced chare array (every heavy element homed on one PE by the
// static block map) is run with LB off, with the centralized GreedyLB and
// RefineLB strategies at an AtSync barrier, and with barrier-free
// neighbor diffusion — all migrating real packed-element blobs over the
// message path. A final leg kills a PE while migration blobs are on the
// wire and demands recovery end with exactly one live copy per element.
//
// Element state is a pure function of (index, iterations executed), so a
// single lost or duplicated delivery anywhere — across migrations,
// forwarding pointers, parked messages, recovery replay — breaks the
// bitwise comparison against the exact per-element state.

const (
	e19Nodes   = 2
	e19Workers = 2
	e19NElems  = 16
	e19NHeavy  = 4 // block map homes all of them on PE 0
	e19Warmup  = 4
	e19Total   = 16
	e19Heavy   = 5 * time.Millisecond
)

// e19Run drives the workload under one LB mode: "off", "greedy",
// "refine" (centralized, at the barrier) or "diffusion" (no central pass;
// the gossip loop and measurement-path decisions run throughout).
func e19Run(mode string) scenario.Result {
	cfg := scenario.ImbalanceConfig{
		Nodes: e19Nodes, Workers: e19Workers, Elems: e19NElems,
		Warmup: e19Warmup, Total: e19Total, HeavyCost: e19Heavy,
		Heavy: func(idx, _ int) bool { return idx < e19NHeavy },
	}
	switch mode {
	case "greedy":
		cfg.LB.Strategy = lb.Greedy{}
	case "refine":
		cfg.LB.Strategy = lb.Refine{}
	case "diffusion":
		cfg.LB.Diffusion = true
		cfg.LB.Period = time.Millisecond
	}
	res, err := scenario.Imbalance(cfg)
	if err != nil {
		log.Fatalf("e19: %s: %v", mode, err)
	}
	return res
}

const e19KillElems, e19KillTotal = 8, 12

// e19Kill reruns the greedy mode with fault tolerance attached and kills
// a PE immediately after the barrier's LB pass issues its migration
// commands — element blobs are in flight when the node dies. Recovery
// must roll back to the last committed checkpoint, replay (including a
// fresh LB pass planned over the surviving PEs), and finish with exactly
// one live copy of every element.
func e19Kill(seed int64) scenario.Result {
	res, err := scenario.Imbalance(scenario.ImbalanceConfig{
		Nodes: 4, Workers: 1, Elems: e19KillElems, Warmup: 4, Total: e19KillTotal,
		HeavyCost: 3 * time.Millisecond,
		Heavy:     func(idx, _ int) bool { return idx < 2 },
		Transport: transport.WithSeed("faulty", seed),
		LB:        lb.Config{Strategy: lb.Greedy{}}, FT: true,
		Faults: scenario.Faults{Kill: []int{3}},
	})
	if err != nil {
		log.Fatalf("e19: kill leg: %v", err)
	}
	return res
}

// lbSection prints the E19 table and enforces its invariants.
func lbSection(seed int64) {
	fmt.Printf("%d elements on %d PEs; %d heavy (%v) all homed on PE 0 by the block map, %d light (%v)\n",
		e19NElems, e19Nodes*e19Workers, e19NHeavy, e19Heavy, e19NElems-e19NHeavy, scenario.LightCost)
	fmt.Printf("%d warmup iterations feed the load meters, then %d measured iterations per element\n",
		e19Warmup, e19Total-e19Warmup)

	ref := e19Run("off")
	iters := float64(e19NElems * (e19Total - e19Warmup))
	exact := scenario.Exact(e19NElems, e19Total)
	refSame := bitwise(exact, ref)
	fmt.Printf("%-10s %10s %10s %9s %11s %9s\n",
		"strategy", "phase ms", "iters/s", "speedup", "migrations", "bitwise")
	fmt.Printf("%-10s %10.1f %10.0f %9s %11d %9s\n",
		"off", ms(ref.Phase), iters/ref.Phase.Seconds(), "1.00x", ref.Moves, refSame)

	best := 0.0
	for _, mode := range []string{"greedy", "refine", "diffusion"} {
		res := e19Run(mode)
		speedup := ref.Phase.Seconds() / res.Phase.Seconds()
		if speedup > best {
			best = speedup
		}
		same := bitwise(exact, res)
		fmt.Printf("%-10s %10.1f %10.0f %8.2fx %11d %9s\n",
			mode, ms(res.Phase), iters/res.Phase.Seconds(), speedup, res.Moves, same)
		switch {
		case same != "ok":
			log.Fatalf("e19: %s diverged from the exact per-element state", mode)
		case res.Moves == 0:
			log.Fatalf("e19: %s migrated nothing off the overloaded PE", mode)
		case speedup <= 1.0:
			log.Fatalf("e19: %s did not improve throughput (%.2fx)", mode, speedup)
		}
	}
	if best < 1.3 {
		log.Fatalf("e19: best strategy speedup %.2fx, want >= 1.3x", best)
	}
	if refSame != "ok" {
		log.Fatal("e19: LB-off run diverged from the exact per-element state")
	}

	kill := e19Kill(seed)
	killOK := bitwise(scenario.Exact(e19KillElems, e19KillTotal), kill)
	fmt.Printf("kill mid-migration: PE 3 fail-stopped with blobs in flight — recoveries %d, restored %d, per-element state %s\n",
		kill.Stats.Recoveries, kill.Stats.RestoredElements, killOK)
	if kill.Stats.Recoveries != 1 || killOK != "ok" {
		log.Fatalf("e19: kill mid-migration did not recover to exactly one live copy per element (stats %+v)", kill.Stats)
	}
	fmt.Println("paper: Charm++'s measurement-based balancers migrate chares from measured load, the mechanic NAMD's BG/Q scaling rests on")
}
