package transport

import (
	"strings"
	"testing"
	"time"

	"blueq/internal/torus"
)

// The 4-node shape {2,1,1,1,2} has physical links 0-1, 2-3 (E dimension)
// and 0-2, 1-3 (A dimension); the detour around a dead 0-1 is 0→2→3→1.

func TestLinkSpecParsing(t *testing.T) {
	good := []struct {
		spec string
		want []LinkEvent
	}{
		{"faulty:link=0-1@0s", []LinkEvent{{A: 0, B: 1}}},
		{"faulty:link=0-1@50ms:down", []LinkEvent{{A: 0, B: 1, After: 50 * time.Millisecond}}},
		{"faulty:link=0-1@0s:flaky=0.25", []LinkEvent{{A: 0, B: 1, Mode: LinkEvtFlaky, Param: 0.25}}},
		{"faulty:link=1-3@1s:slow=4", []LinkEvent{{A: 1, B: 3, After: time.Second, Mode: LinkEvtSlow, Param: 4}}},
		{"faulty:link=0-1@0s+0-1@80ms:heal", []LinkEvent{
			{A: 0, B: 1},
			{A: 0, B: 1, After: 80 * time.Millisecond, Mode: LinkEvtHeal},
		}},
		{"faulty:kill=2@10ms,link=0-1@0s", []LinkEvent{{A: 0, B: 1}}},
	}
	for _, tc := range good {
		tr, err := New(tc.spec, 4, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", tc.spec, err)
		}
		f, ok := tr.(*Faulty)
		if !ok {
			t.Fatalf("New(%q) = %T, want *Faulty", tc.spec, tr)
		}
		if len(f.cfg.Links) != len(tc.want) {
			t.Fatalf("New(%q): %d link events, want %d", tc.spec, len(f.cfg.Links), len(tc.want))
		}
		for i, ev := range f.cfg.Links {
			if ev != tc.want[i] {
				t.Errorf("New(%q) event %d = %+v, want %+v", tc.spec, i, ev, tc.want[i])
			}
		}
		if tr.Reliable() {
			t.Errorf("New(%q) reports Reliable; link events must arm the reliability stack", tc.spec)
		}
		tr.Close()
	}

	bad := []struct{ spec, frag string }{
		{"faulty:link=0-1", "malformed link event"},
		{"faulty:link=01@0s", "malformed link"},
		{"faulty:link=0-9@0s", "out of range"},
		{"faulty:link=0-3@0s", "not a physical link"},
		{"faulty:link=0-0@0s", "same rank"},
		{"faulty:link=0-1@soon", "link time"},
		{"faulty:link=0-1@-5ms", "negative"},
		{"faulty:link=0-1@0s:sever", "unknown link mode"},
		{"faulty:link=0-1@0s:down=1", "takes no parameter"},
		{"faulty:link=0-1@0s:heal=1", "takes no parameter"},
		{"faulty:link=0-1@0s:flaky", "needs a probability"},
		{"faulty:link=0-1@0s:flaky=1.5", "outside [0,1]"},
		{"faulty:link=0-1@0s:slow", "needs a factor"},
		{"faulty:link=0-1@0s:slow=0.5", "must be >= 1"},
		{"faulty:link=0-1@0s:flaky=NaN", "outside [0,1]"},
		{"faulty:link=0-1@0s:slow=NaN", "must be >= 1"},
		{"faulty:link=0-1@0s:slow=Inf", "finite"},
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
		{"faulty:kill=1@-10ms", "negative"},
		{"faulty:kill=9@10ms", "out of range"},
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

// sendAndDrain injects one packet src→dst and drains the transport.
func sendAndDrain(t *testing.T, tr Transport, src, dst int) {
	t.Helper()
	if err := tr.Endpoint(src).Inject(torus.Packet{Type: torus.MemoryFIFO, Dst: dst, Bytes: 64, Payload: "x"}); err != nil {
		t.Fatal(err)
	}
	drain(t, tr)
}

func TestFaultyReroutesAroundDownLink(t *testing.T) {
	tr, err := New("faulty:seed=5,link=0-1@0s", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// The @0s event fires from a timer; wait for the table to show it.
	tor := tr.Torus()
	deadline := time.Now().Add(2 * time.Second)
	for !tor.HasLinkFaults() {
		if time.Now().After(deadline) {
			t.Fatal("scheduled link event never fired")
		}
		time.Sleep(time.Millisecond)
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
	lf := tr.(LinkFaulter)
	// Node 1's only links are 0-1 and 1-3; failing both isolates it.
	if err := lf.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := lf.FailLink(1, 3); err != nil {
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
	if err := lf.HealLink(0, 1); err != nil {
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
	lf := tr.(LinkFaulter)
	if err := lf.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	sendAndDrain(t, tr, 0, 1)
	if got := pollAll(tr.Endpoint(1)); len(got) != 1 {
		t.Fatalf("contended did not reroute around dead link: %+v", got)
	}
	if err := lf.FailLink(1, 3); err != nil {
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

func TestScheduledHealRestoresLink(t *testing.T) {
	tr, err := New("faulty:seed=5,link=0-1@0s+0-1@40ms:heal", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tor := tr.Torus()
	deadline := time.Now().Add(2 * time.Second)
	for len(tor.DownLinks()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("down event never fired")
		}
		time.Sleep(time.Millisecond)
	}
	for len(tor.DownLinks()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("heal event never fired")
		}
		time.Sleep(time.Millisecond)
	}
	sendAndDrain(t, tr, 0, 1)
	if got := pollAll(tr.Endpoint(1)); len(got) != 1 {
		t.Fatalf("healed link did not deliver: %+v", got)
	}
}
