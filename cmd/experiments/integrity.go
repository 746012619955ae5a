package main

import (
	"fmt"
	"log"

	"blueq/internal/scenario"
	"blueq/internal/transport"
)

// E17: end-to-end integrity and multi-failure tolerance. Two tables:
//
//   - recovery under 0, 1 and 2 cascading node deaths (the second injected
//     from inside the first recovery) on the 16³ FFT over a transport that
//     also corrupts, truncates and drops packets — every surviving run
//     must end bitwise identical to the kill-free run;
//   - goodput vs corruption rate on a reliable-sublayer flood, showing the
//     software CRC32C (the model's stand-in for the MU's hardware ECC)
//     converting corruption into retransmissions instead of wrong bytes.

const (
	integrityIters = 6
	integrityKill1 = 1 // fail-stopped as iteration 3 launches
	integrityKill2 = 3 // fail-stopped from OnRecoveryStart (non-adjacent buddy)
)

// integrityChaosTable prints recovery behaviour for 0/1/2 cascading kills
// on the 16³ FFT over the corrupting transport (heartbeats ride the lossy
// wire too), asserting bitwise identity against the kill-free run.
func integrityChaosTable(seed int64) {
	fmt.Printf("16³ FFT, 4 nodes, transport faulty:corrupt=0.02,truncate=0.01,drop=0.02, checkpoint every iteration\n")
	fmt.Printf("%-18s %10s %12s %12s %12s %10s %10s\n",
		"kill schedule", "elapsed ms", "recoveries", "detections", "wire-crc", "recover ms", "bitwise")
	cfg := scenario.FFTConfig{
		Iters:     integrityIters,
		Transport: transport.WithSeed("faulty:corrupt=0.02,truncate=0.01,drop=0.02", seed),
	}
	ref, err := scenario.Reference(scenario.FFT(cfg))
	if err != nil {
		log.Fatalf("integrity: %v", err)
	}
	rows := []struct {
		label  string
		faults scenario.Faults
	}{
		{"none", scenario.Faults{}},
		{"node 1", scenario.Faults{AtIter: 3, Kill: []int{integrityKill1}}},
		{"node 1, then 3", scenario.Faults{AtIter: 3, Kill: []int{integrityKill1}, Cascade: []int{integrityKill2}}},
	}
	allOK := true
	for _, row := range rows {
		cfg.Faults = row.faults
		got, err := scenario.FFT(cfg)
		if err != nil {
			log.Fatalf("integrity run (kills: %s): %v", row.label, err)
		}
		match := bitwise(ref, got)
		allOK = allOK && match == "ok"
		fmt.Printf("%-18s %10.1f %12d %12d %12d %10.1f %10s\n",
			row.label, ms(got.Elapsed), got.Stats.Recoveries, got.Stats.Confirmations,
			got.WireCRCFails, ms(got.Recover), match)
	}
	if !allOK {
		log.Fatal("integrity: a kill schedule produced wrong results")
	}
	fmt.Println("second kill fired from inside the first recovery (OnRecoveryStart); all runs bitwise identical")
}

// integrityGoodput floods a 2-node pair at increasing corruption rates and
// tabulates delivered throughput against wire-CRC rejections and the
// retransmissions that repaired them. Every run must deliver every message
// exactly once — corruption costs goodput, never correctness.
func integrityGoodput(seed int64) {
	const msgs = 30000
	fmt.Printf("%d-message flood, 2 nodes, reliable sublayer + wire CRC32C armed\n", msgs)
	fmt.Printf("%10s %12s %12s %12s %12s\n", "corrupt", "msgs/s", "crc-rejects", "retries", "delivered")
	for _, rate := range []float64{0, 0.005, 0.01, 0.02, 0.05} {
		spec := transport.WithSeed(fmt.Sprintf("faulty:drop=0.01,corrupt=%g,truncate=%g", rate, rate/2), seed)
		res, err := scenario.Flood(scenario.FloodConfig{Transport: spec, Count: msgs, Bytes: 64})
		if err == nil {
			err = res.ExactlyOnce()
		}
		fmt.Printf("%10g %12.0f %12d %12d %12d\n",
			rate, float64(res.Distinct)/(res.Send+res.Drain).Seconds(),
			res.CRCRejects, res.Retries, res.Distinct)
		if err != nil {
			log.Fatalf("integrity: corruption rate %g: %v", rate, err)
		}
	}
	fmt.Println("paper seam: MU hardware ECC → software CRC32C over the packet wire image (DESIGN.md)")
}

// integritySection runs both E17 tables.
func integritySection(seed int64) {
	integrityChaosTable(seed)
	fmt.Println()
	integrityGoodput(seed)
}
