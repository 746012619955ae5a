package ft_test

import (
	"testing"

	"blueq/internal/charm"
	"blueq/internal/ft"
	"blueq/internal/scenario"
)

// TestCorruptedCheckpointFallsBackToBuddy rots one replica of a committed
// checkpoint blob in place, then kills an unrelated node. Restore must
// reject the rotten copy by checksum, count it, fall back to the buddy
// replica, and still produce bitwise-identical output.
func TestCorruptedCheckpointFallsBackToBuddy(t *testing.T) {
	cfg := scenario.FFTConfig{N: 8, Iters: 6, Transport: "faulty:seed=1", Detector: ft.TightCfg()}
	ref, err := scenario.Reference(scenario.FFT(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = scenario.Faults{
		AtIter: 3, Kill: []int{2},
		Mid: func(_ *charm.Runtime, mgr *ft.Manager) {
			if err := mgr.RotReplica(0); err != nil {
				t.Error(err)
			}
		},
	}
	got, err := scenario.FFT(cfg)
	if err != nil {
		t.Fatalf("recovery failed despite a surviving replica: %v", err)
	}
	if got.Stats.CkptCRCFails == 0 {
		t.Errorf("rotten replica was never rejected (CkptCRCFails = 0)")
	}
	if got.Stats.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1 (stats %+v)", got.Stats.Recoveries, got.Stats)
	}
	if err := scenario.SameBits(ref, got); err != nil {
		t.Fatalf("restore with one rotten replica: %v", err)
	}
}
