package main

import (
	"fmt"
	"strings"
	"time"

	"blueq/internal/scenario"
)

// The chaos schedules behind -kills and -links: the FFT cell becomes a
// fault-tolerant run under the FT manager (scenario.FFT) — checkpoint every
// iteration, inject the schedule right after iteration 3 launches, and at
// the end compare the grids bitwise against a fault-free reference over the
// same transport. The recovery layer repeats the exact arithmetic it rolled
// back, so "survived" here means identical bits, not just a finished run.

const chaosIters = 6

// chaosPair runs the fault-free reference and the run under f.
func chaosPair(spec string, f scenario.Faults) (got scenario.Result, err error) {
	cfg := scenario.FFTConfig{Iters: chaosIters, Transport: spec}
	ref, err := scenario.Reference(scenario.FFT(cfg))
	if err != nil {
		return got, err
	}
	cfg.Faults = f
	if got, err = scenario.FFT(cfg); err != nil {
		return got, fmt.Errorf("chaos run: %w", err)
	}
	return got, scenario.SameBits(ref, got)
}

// runFFTChaosCell is the -kills FFT cell: the first victim is fail-stopped
// once the run is warm, the rest spread apart from the moment the first
// recovery begins — each lands wherever the system then is (mid-recovery,
// mid-re-checkpoint, or after commit; that is the point). The chaos run
// must actually have recovered and end bitwise identical to the reference.
func runFFTChaosCell(spec string, victims []int, spread time.Duration) error {
	start := time.Now()
	got, err := chaosPair(spec, scenario.Faults{AtIter: 3, Kill: victims[:1], Cascade: victims[1:], Spread: spread})
	if err != nil {
		return err
	}
	if got.Stats.Recoveries < 1 {
		return fmt.Errorf("kill schedule ran but no recovery happened: %+v", got.Stats)
	}
	fmt.Fprintf(out, "chaos over %-45s %d kills (spread %v): %d recoveries, %d confirmations, %d ckpt-crc rejects, bitwise identical in %5.1fs\n",
		spec+":", len(victims), spread, got.Stats.Recoveries, got.Stats.Confirmations, got.Stats.CkptCRCFails,
		time.Since(start).Seconds())
	return nil
}

// runFFTLinkCell is the -links FFT cell: physical links are fail-stopped one
// at a time, held down, then healed before the next flap. The router must
// absorb every flap by rerouting (the 4-node cell's links form a cycle, so
// one dead wire never partitions it): zero rollbacks, reroutes > 0, and
// grids bitwise identical to the flap-free reference.
func runFFTLinkCell(spec string, flaps int, hold time.Duration) error {
	start := time.Now()
	got, err := chaosPair(spec, scenario.Faults{AtIter: 3, Flaps: flaps, Hold: hold})
	switch {
	case err != nil:
		return err
	case got.Stats.Recoveries != 0 || got.Stats.Confirmations != 0:
		return fmt.Errorf("link flaps caused a rollback, want pure rerouting: %+v", got.Stats)
	case got.Reroutes == 0:
		return fmt.Errorf("link flaps ran but the router never rerouted")
	}
	fmt.Fprintf(out, "links over %-45s %d flaps (hold %v): %d reroutes (%d detours), %d link suspects, 0 rollbacks, bitwise identical in %5.1fs\n",
		spec+":", flaps, hold, got.Reroutes, got.Detours, got.Stats.LinkSuspects,
		time.Since(start).Seconds())
	return nil
}

// withCorrupt arms packet corruption and truncation on a faulty transport
// spec; non-faulty specs are returned unchanged.
func withCorrupt(spec string, rate float64) string {
	if rate <= 0 || !strings.HasPrefix(spec, "faulty:") {
		return spec
	}
	return fmt.Sprintf("%s,corrupt=%g,truncate=%g", spec, rate, rate/2)
}
