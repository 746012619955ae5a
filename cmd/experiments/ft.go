package main

import (
	"fmt"
	"log"

	"blueq/internal/ft"
	"blueq/internal/scenario"
	"blueq/internal/transport"
)

// E14: the fault-tolerance scenario. A 16³ 3D FFT iterates on 4
// single-worker nodes with double in-memory checkpointing every k
// iterations; node 2 is fail-stopped right after iteration 7 launches.
// The heartbeat detector confirms the failure, recovery restores node 2's
// pencils from their buddy copies onto a survivor, and the run replays
// from the last committed epoch — BG/Q's checkpoint-to-buddy resilience
// over the transport seam. The final grid must match the failure-free run
// bit for bit; the table shows how the checkpoint interval trades steady-
// state overhead against replayed work and time-to-repair.

const (
	ftIters    = 8
	ftKillIter = 7 // fail-stop fires right after this iteration starts
	ftKillNode = 2
)

// ftRecovery prints the recovery-correctness check and the recovery-time
// vs checkpoint-interval table behind EXPERIMENTS.md. det carries the
// detector tuning from the -phi / -suspect-after flags.
func ftRecovery(seed int64, det ft.Config) {
	cfg := scenario.FFTConfig{Iters: ftIters, Transport: transport.WithSeed("faulty", seed), Detector: det}
	ref, err := scenario.Reference(scenario.FFT(cfg))
	if err != nil {
		log.Fatalf("ft: %v", err)
	}
	fmt.Printf("reference run: %d iterations, %d checkpoints, no failures (%.1f ms)\n",
		ftIters, ref.Stats.Checkpoints, ms(ref.Elapsed))
	fmt.Printf("%-22s %12s %10s %12s %12s %10s\n",
		"checkpoint cadence", "recover ms", "replayed", "detections", "restored", "bitwise")
	cfg.Faults = scenario.Faults{AtIter: ftKillIter, Kill: []int{ftKillNode}}
	allOK := true
	for _, every := range []int{1, 2, 4} {
		cfg.Every = every
		got, err := scenario.FFT(cfg)
		if err != nil {
			log.Fatalf("ft: every %d iterations: %v", every, err)
		}
		match := bitwise(ref, got)
		if got.Stats.Recoveries != 1 {
			match = "NO-RECOVERY"
		}
		allOK = allOK && match == "ok"
		fmt.Printf("%-22s %12.1f %10d %12d %12d %10s\n",
			fmt.Sprintf("every %d iterations", every),
			ms(got.Recover), got.Replayed, got.Stats.Confirmations,
			got.Stats.RestoredElements, match)
	}
	if !allOK {
		log.Fatal("ft: recovery produced wrong results")
	}
	fmt.Printf("killed node %d after iteration %d started; every run finished bitwise identical to the failure-free grid\n",
		ftKillNode, ftKillIter)
}
