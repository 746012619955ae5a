package transport

import (
	"math"
	"strings"
	"testing"
	"time"

	"blueq/internal/torus"
)

// The 4-node shape {2,1,1,1,2} has physical links 0-1, 2-3 (E dimension)
// and 0-2, 1-3 (A dimension); the detour around a dead 0-1 is 0→2→3→1.

func TestSpecValidationRejectsMalformedOptions(t *testing.T) {
	bad := []struct{ spec, frag string }{
		{"faulty:drop=0.1,drop=0.2", "duplicate option"},
		{"faulty:drop=1.5", "outside [0,1]"},
		{"faulty:dup=-0.1", "outside [0,1]"},
		{"faulty:delayrate=2", "outside [0,1]"},
		{"faulty:corrupt=1.01", "outside [0,1]"},
		{"faulty:truncate=-1", "outside [0,1]"},
		{"faulty:delaymax=-1ms", "must be positive"},
		{"faulty:scale=0", "must be positive"},
		{"faulty:scale=-2", "must be positive"},
		{"contended:scale=0", "must be positive"},
		{"contended:scale=NaN", "must be positive"},
		{"contended:scale=+Inf", "finite"},
		{"faulty:scale=Inf", "finite"},
		{"faulty:drop=NaN", "outside [0,1]"},
		{"faulty:dup=nan", "outside [0,1]"},
		{"faulty:corrupt=Inf", "outside [0,1]"},
		{"faulty:truncate=-Inf", "outside [0,1]"},
		{"faulty:delayrate=NaN", "outside [0,1]"},
	}
	for _, tc := range bad {
		tr, err := New(tc.spec, 4, 1)
		if err == nil {
			tr.Close()
			t.Errorf("New(%q) accepted, want error containing %q", tc.spec, tc.frag)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("New(%q) error %q, want it to contain %q", tc.spec, err, tc.frag)
		}
	}
}

// Link faults are not a spec option: the spec refuses link= and the torus
// link table, reached through Transport.Torus, validates what the spec
// parser once did.
func TestLinkSpecParsing(t *testing.T) {
	for _, spec := range []string{
		"faulty:link=0-1@0s",
		"faulty:link=0-1@0s+0-1@80ms:heal",
		"faulty:unreliable=1,link=1-3@1s:slow=4",
	} {
		tr, err := New(spec, 4, 1)
		if err == nil {
			tr.Close()
			t.Errorf("New(%q) accepted, want error containing %q", spec, "unknown option")
			continue
		}
		if !strings.Contains(err.Error(), "unknown option") {
			t.Errorf("New(%q) error %q, want it to contain %q", spec, err, "unknown option")
		}
	}

	tr, err := New("faulty:seed=5", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tor := tr.Torus()
	bad := []struct {
		name string
		err  error
		frag string
	}{
		{"fail 0-9", tor.FailLink(0, 9), "out of range"},
		{"fail 0-3", tor.FailLink(0, 3), "not a physical link"},
		{"fail 0-0", tor.FailLink(0, 0), "same rank"},
		{"flaky 1.5", tor.DegradeLink(0, 1, 1.5, 0), "outside [0,1]"},
		{"flaky NaN", tor.DegradeLink(0, 1, math.NaN(), 0), "outside [0,1]"},
		{"slow -1", tor.DegradeLink(0, 1, 0, -1), "negative"},
		{"slow NaN", tor.DegradeLink(0, 1, 0, math.NaN()), "NaN"},
		{"slow Inf", tor.DegradeLink(0, 1, 0, math.Inf(1)), "finite"},
	}
	for _, tc := range bad {
		if tc.err == nil {
			t.Errorf("%s accepted, want error containing %q", tc.name, tc.frag)
			continue
		}
		if !strings.Contains(tc.err.Error(), tc.frag) {
			t.Errorf("%s error %q, want it to contain %q", tc.name, tc.err, tc.frag)
		}
	}
	if tor.HasLinkFaults() {
		t.Error("rejected link faults left entries in the link table")
	}
	if err := tor.DegradeLink(1, 3, 0, 4); err != nil {
		t.Fatal(err)
	}
	if f := tor.LinkFaultOf(3, 1); f.State != torus.LinkDegraded || f.SlowFactor != 4 {
		t.Errorf("LinkFaultOf(3,1) = %+v, want degraded with slow=4", f)
	}
	if err := tor.HealLink(1, 3); err != nil {
		t.Fatal(err)
	}
	if tor.HasLinkFaults() {
		t.Error("healed link still in the link table")
	}
}

// sendAndDrain injects one packet src→dst and drains the transport.
func sendAndDrain(t *testing.T, tr Transport, src, dst int) {
	t.Helper()
	if err := tr.Endpoint(src).Inject(torus.Packet{Type: torus.MemoryFIFO, Dst: dst, Bytes: 64, Payload: "x"}); err != nil {
		t.Fatal(err)
	}
	drain(t, tr)
}

func TestFaultyReroutesAroundDownLink(t *testing.T) {
	tr, err := New("faulty:seed=5", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tor := tr.Torus()
	if err := tor.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	sendAndDrain(t, tr, 0, 1)
	got := pollAll(tr.Endpoint(1))
	if len(got) != 1 || got[0].Payload != "x" {
		t.Fatalf("packet not delivered around dead link: %+v", got)
	}
	if tor.Reroutes() == 0 || tor.Detours() == 0 {
		t.Errorf("reroutes=%d detours=%d, want both > 0", tor.Reroutes(), tor.Detours())
	}
	if s := tr.Stats(); s.LinkDrops != 0 {
		t.Errorf("LinkDrops = %d, want 0 (rerouted, not lost)", s.LinkDrops)
	}
}

func TestFaultyDropsAcrossPartition(t *testing.T) {
	tr, err := New("faulty:seed=5", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Node 1's only links are 0-1 and 1-3; failing both isolates it.
	if err := tr.Torus().FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Torus().FailLink(1, 3); err != nil {
		t.Fatal(err)
	}
	sendAndDrain(t, tr, 0, 1)
	if got := pollAll(tr.Endpoint(1)); len(got) != 0 {
		t.Fatalf("partitioned destination received %+v", got)
	}
	if s := tr.Stats(); s.LinkDrops != 1 {
		t.Errorf("LinkDrops = %d, want 1", s.LinkDrops)
	}
	// Healing one link restores delivery and the route cache notices via
	// the generation bump.
	if err := tr.Torus().HealLink(0, 1); err != nil {
		t.Fatal(err)
	}
	sendAndDrain(t, tr, 0, 1)
	if got := pollAll(tr.Endpoint(1)); len(got) != 1 {
		t.Fatalf("healed link did not restore delivery: %+v", got)
	}
}

func TestFaultyFlakyLinkDropsCrossings(t *testing.T) {
	// flaky=1 makes every crossing of 0-1 a loss, deterministically. The
	// 0→1 minimal route is the single link 0-1, so all 0→1 packets die;
	// 2→3 never touches the gray link and is unaffected.
	tr, err := New("faulty:seed=5", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Torus().DegradeLink(0, 1, 1.0, 0); err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := tr.Endpoint(0).Inject(torus.Packet{Type: torus.MemoryFIFO, Dst: 1, Bytes: 64}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Endpoint(2).Inject(torus.Packet{Type: torus.MemoryFIFO, Dst: 3, Bytes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, tr)
	if got := pollAll(tr.Endpoint(1)); len(got) != 0 {
		t.Fatalf("flaky=1 link leaked %d packets", len(got))
	}
	if got := pollAll(tr.Endpoint(3)); len(got) != n {
		t.Fatalf("clean pair delivered %d packets, want %d", len(got), n)
	}
	if s := tr.Stats(); s.LinkDrops != n {
		t.Errorf("LinkDrops = %d, want %d", s.LinkDrops, n)
	}
}

func TestFaultySlowLinkDelaysCrossings(t *testing.T) {
	tr, err := New("faulty:seed=5", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// A 5000x serialization stretch on 0-1 puts the crossing delay of a
	// 4KB packet near 6ms, far above the host's scheduling noise.
	if err := tr.Torus().DegradeLink(0, 1, 0, 5000); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := tr.Endpoint(0).Inject(torus.Packet{Type: torus.MemoryFIFO, Dst: 1, Bytes: 4096}); err != nil {
		t.Fatal(err)
	}
	drain(t, tr)
	elapsed := time.Since(start)
	if got := pollAll(tr.Endpoint(1)); len(got) != 1 {
		t.Fatalf("slow link lost the packet: %+v", got)
	}
	want := time.Duration(5000 * torus.TransferTime(4096, 1) * 1e9)
	if elapsed < want/2 {
		t.Errorf("delivery took %v, want at least ~%v from the slow link", elapsed, want)
	}
}

func TestContendedReroutesAndDropsOnPartition(t *testing.T) {
	tr, err := New("contended", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Torus().FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	sendAndDrain(t, tr, 0, 1)
	if got := pollAll(tr.Endpoint(1)); len(got) != 1 {
		t.Fatalf("contended did not reroute around dead link: %+v", got)
	}
	if err := tr.Torus().FailLink(1, 3); err != nil {
		t.Fatal(err)
	}
	sendAndDrain(t, tr, 0, 1)
	if got := pollAll(tr.Endpoint(1)); len(got) != 0 {
		t.Fatalf("contended delivered across a partition: %+v", got)
	}
	if s := tr.Stats(); s.LinkDrops != 1 {
		t.Errorf("LinkDrops = %d, want 1", s.LinkDrops)
	}
}

// Faulty over contended reads the one route cache in the torus: the
// first 0→1 packet after the link fails resolves the detour once for both
// layers, and the second reuses it.
func TestStackedTransportsShareRouteCache(t *testing.T) {
	tr, err := New("faulty:scale=1", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tor := tr.Torus()
	if err := tor.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	before := tor.Reroutes()
	sendAndDrain(t, tr, 0, 1)
	sendAndDrain(t, tr, 0, 1)
	if got := pollAll(tr.Endpoint(1)); len(got) != 2 {
		t.Fatalf("delivered %d packets around the dead link, want 2", len(got))
	}
	if got := tor.Reroutes() - before; got != 1 {
		t.Errorf("two sends added %d reroutes, want 1 (one per pair per generation)", got)
	}
}
