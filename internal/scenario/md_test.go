package scenario

import "testing"

// The MD chaos rows: a seeded water box stepped with PE 1 executing every
// message 50 µs late behind a 16-credit window, over each hostile wire,
// aggregation off and on. Every patch exchange must arrive exactly once,
// so the final positions are bitwise those of a fault-free in-process run
// of the same system, and the backlog stays bounded.
func TestMDUnderFaults(t *testing.T) {
	refs := map[int64]Result{}
	for _, r := range chaosRows(hostile...) {
		t.Run(r.name, func(t *testing.T) {
			replayHint(t, r.seed)
			ref, ok := refs[r.seed]
			if !ok {
				var err error
				if ref, err = MD(MDConfig{Seed: r.seed}); err != nil {
					t.Fatalf("reference run: %v", err)
				}
				refs[r.seed] = ref
			}
			got, err := MD(MDConfig{
				Seed: r.seed, Transport: r.spec, Aggregation: r.aggregation(),
				FlowControl: slowFC(), Slow: slow,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := SameBits(ref, got); err != nil {
				t.Errorf("vs fault-free in-process run: %v", err)
			}
			if err := got.Bounded(); err != nil {
				t.Error(err)
			}
			if got.ResidentBound == 0 {
				t.Error("flow control armed but no residency sampled")
			}
		})
	}
}
