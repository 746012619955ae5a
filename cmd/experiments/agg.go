package main

import (
	"fmt"
	"log"

	"blueq/internal/aggregate"
	"blueq/internal/scenario"
)

// E16: message aggregation rate sweep. One PE floods a PE on the other
// node with fixed-count bursts at several payload sizes, with the
// aggregation layer off and on; the interesting column is msgs/sec at
// small payloads, where per-message inject overhead dominates and the
// TRAM-style batching pays for itself. Large payloads converge: the
// payload, not the envelope, is the cost.
func aggSweep(msgs int, agc aggregate.Config) {
	fmt.Printf("%8s  %14s  %14s  %8s\n", "payload", "agg off (m/s)", "agg on (m/s)", "speedup")
	for _, payload := range []int{8, 64, 512} {
		off := floodBest(msgs, payload, nil)
		cfg := agc
		on := floodBest(msgs, payload, &cfg)
		fmt.Printf("%7dB  %14.0f  %14.0f  %7.2fx\n", payload, off, on, on/off)
	}
	fmt.Println("target: >= 2x at <= 64B payloads (acceptance); parity or better at 512B")
}

// floodBest reports the best of several repetitions of a one-way flood of
// msgs messages of the given modelled payload size, in messages per second
// from the first send to the last execution — the standard benchmarking
// discipline (a rate measurement's noise is one-sided: OS scheduling and GC
// pauses only ever slow a run down). agc nil runs the direct per-message
// path.
func floodBest(msgs, payload int, agc *aggregate.Config) float64 {
	const reps = 5
	best := 0.0
	for i := 0; i < reps; i++ {
		res, err := scenario.Flood(scenario.FloodConfig{Count: msgs, Bytes: payload, Aggregation: agc})
		if err == nil {
			err = res.ExactlyOnce()
		}
		if err != nil {
			log.Fatalf("E16: %v", err)
		}
		best = max(best, float64(res.Sent)/(res.Send+res.Drain).Seconds())
	}
	return best
}
