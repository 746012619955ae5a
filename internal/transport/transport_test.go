package transport

import (
	"slices"
	"strings"
	"testing"
	"time"

	"blueq/internal/torus"
)

// drain waits until the transport has no packets in flight, advancing it
// along the way, with a test-failure deadline.
func drain(t *testing.T, tr Transport) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Pending() {
		tr.Advance()
		if time.Now().After(deadline) {
			t.Fatal("transport never drained")
		}
		time.Sleep(50 * time.Microsecond)
	}
	tr.Advance()
}

// pollAll empties every reception FIFO of the given endpoint.
func pollAll(ep Endpoint) []torus.Packet {
	var out []torus.Packet
	for f := 0; f < ep.FIFOCount(); f++ {
		for {
			p, ok := ep.Poll(f)
			if !ok {
				break
			}
			out = append(out, p)
		}
	}
	return out
}

func TestFactoryParsing(t *testing.T) {
	good := []struct {
		spec string
		str  string
	}{
		{"", "inproc"},
		{"inproc", "inproc"},
		{"contended", "contended:scale=1"},
		{"contended:scale=2.5", "contended:scale=2.5"},
		{"faulty", "faulty:seed=1,drop=0,dup=0,delayrate=0,delaymax=200µs,corrupt=0,truncate=0"},
		{"faulty:seed=7,drop=0.05,dup=0.02", "faulty:seed=7,drop=0.05,dup=0.02,delayrate=0,delaymax=200µs,corrupt=0,truncate=0"},
		{"faulty:scale=2", "faulty:seed=1,drop=0,dup=0,delayrate=0,delaymax=200µs,corrupt=0,truncate=0,scale=2"},
		{"faulty:corrupt=0.02,truncate=0.01", "faulty:seed=1,drop=0,dup=0,delayrate=0,delaymax=200µs,corrupt=0.02,truncate=0.01"},
	}
	for _, tc := range good {
		tr, err := New(tc.spec, 2, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", tc.spec, err)
		}
		if got := tr.String(); got != tc.str {
			t.Errorf("New(%q).String() = %q, want %q", tc.spec, got, tc.str)
		}
		if tr.Nodes() != 2 {
			t.Errorf("New(%q).Nodes() = %d, want 2", tc.spec, tr.Nodes())
		}
		tr.Close()
	}
	bad := []string{
		"warp", "inproc:x=1", "contended:speed=3", "contended:scale=abc",
		"faulty:drop=lots", "faulty:seed=1.5", "faulty:delaymax=fast",
		"faulty:unknown=1", "contended:scale", "faulty:corrupt=high",
		"faulty:truncate=", "faulty:unreliable=maybe",
	}
	for _, spec := range bad {
		if tr, err := New(spec, 2, 1); err == nil {
			tr.Close()
			t.Errorf("New(%q) accepted, want error", spec)
		}
	}
}

func TestFaultyReliableOnlyWhenFaultFree(t *testing.T) {
	clean, _ := New("faulty:seed=3", 2, 1)
	defer clean.Close()
	if !clean.Reliable() {
		t.Error("fault-free faulty transport should report Reliable")
	}
	lossy, _ := New("faulty:drop=0.1", 2, 1)
	defer lossy.Close()
	if lossy.Reliable() {
		t.Error("lossy transport must not report Reliable")
	}
}

// A packet nothing delays can be polled at the destination as soon as
// Inject returns — no Advance, no sleep — whether the endpoint is the MU
// itself or a faulty one with every fault rate at zero.
func TestInprocPassthrough(t *testing.T) {
	for _, tc := range []struct {
		spec         string
		mu, reliable bool
	}{
		{"inproc", true, true},
		{"faulty:unreliable=1", false, false},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			tr, err := New(tc.spec, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if _, ok := tr.Endpoint(0).(*torus.MU); ok != tc.mu {
				t.Fatalf("endpoint is %T, want *torus.MU: %v", tr.Endpoint(0), tc.mu)
			}
			if tr.Reliable() != tc.reliable || tr.Pending() || tr.Advance() != 0 {
				t.Fatalf("Reliable = %v, want %v, with no in-flight state", tr.Reliable(), tc.reliable)
			}
			if err := tr.Endpoint(0).Inject(torus.Packet{Type: torus.MemoryFIFO, Dst: 1, Bytes: 32, FIFO: 1, Payload: "hi"}); err != nil {
				t.Fatal(err)
			}
			got := pollAll(tr.Endpoint(1))
			if len(got) != 1 || got[0].Payload != "hi" || got[0].Src != 0 {
				t.Fatalf("got %+v", got)
			}
			s := tr.Stats()
			if s.Injected != 1 || s.Delivered != 1 {
				t.Fatalf("stats = %+v", s)
			}
		})
	}
}

func TestContendedDeliversInOrderAndStalls(t *testing.T) {
	// scale=50 stretches the modelled link delays (~110µs to serialize one
	// 4KB packet) far past the wall-clock gap between consecutive Injects,
	// so back-to-back sends contend on the first link no matter how slow
	// the host or how heavily instrumented the build (-race) is.
	tr, err := New("contended:scale=50", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const n = 50
	for i := 0; i < n; i++ {
		// Large packets so consecutive sends genuinely contend on the links.
		if err := tr.Endpoint(0).Inject(torus.Packet{Type: torus.MemoryFIFO, Dst: 1, Bytes: 4096, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, tr)
	got := pollAll(tr.Endpoint(1))
	if len(got) != n {
		t.Fatalf("delivered %d/%d", len(got), n)
	}
	for i, p := range got {
		if p.Payload.(int) != i {
			t.Fatalf("packet %d carried payload %v: FIFO order broken", i, p.Payload)
		}
	}
	s := tr.Stats()
	if s.Injected != n || s.Delivered != n {
		t.Fatalf("stats = %+v", s)
	}
	if s.Delayed == 0 || s.StallNS == 0 {
		t.Fatalf("back-to-back 4KB sends never stalled on a link: %+v", s)
	}
}

func TestContendedRejectsBadDestination(t *testing.T) {
	tr, _ := New("contended", 2, 1)
	defer tr.Close()
	if err := tr.Endpoint(0).Inject(torus.Packet{Dst: 9}); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestFaultyDeterministicPattern(t *testing.T) {
	run := func() Stats {
		tr, err := New("faulty:seed=42,drop=0.1,dup=0.1,delayrate=0.2,delaymax=50us", 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		for i := 0; i < 500; i++ {
			if err := tr.Endpoint(0).Inject(torus.Packet{Type: torus.MemoryFIFO, Dst: 1, Bytes: 64, Payload: i}); err != nil {
				t.Fatal(err)
			}
		}
		drain(t, tr)
		return tr.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different fault pattern:\n%+v\n%+v", a, b)
	}
	if a.Dropped == 0 || a.Duplicated == 0 || a.Delayed == 0 {
		t.Fatalf("faults never fired: %+v", a)
	}
}

func TestFaultyDeliveryAccounting(t *testing.T) {
	tr, err := New("faulty:seed=7,drop=0.2,dup=0.2", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const n = 400
	for i := 0; i < n; i++ {
		if err := tr.Endpoint(0).Inject(torus.Packet{Type: torus.MemoryFIFO, Dst: 1, Bytes: 64, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, tr)
	got := pollAll(tr.Endpoint(1))
	s := tr.Stats()
	want := int(s.Injected - s.Dropped + s.Duplicated)
	if len(got) != want {
		t.Fatalf("delivered %d packets, stats say %d (%+v)", len(got), want, s)
	}
	if s.Dropped == 0 || s.Duplicated == 0 {
		t.Fatalf("20%% rates over %d packets produced no faults: %+v", n, s)
	}
}

func TestDelayLineOrdersByDueTime(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name   string
		due    []time.Duration // flight i carries payload i, due this long from now
		inline []int           // delivered before schedule returned
		want   []int           // final delivery order
	}{
		{name: "release times, not submission order", due: []time.Duration{3 * ms, 4 * ms, 2 * ms}, want: []int{2, 0, 1}},
		{name: "a due flight on an empty line goes inline", due: []time.Duration{0}, inline: []int{0}, want: []int{0}},
		{name: "a due flight behind a queued one waits its turn", due: []time.Duration{2 * ms, 0}, want: []int{1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// No delivery goroutine: what schedule did not deliver inline
			// stays queued until the explicit advance below.
			var got []int
			dl := &delayLine{deliver: func(src int, p torus.Packet) { got = append(got, p.Payload.(int)) }}
			now := time.Now()
			for i, d := range tc.due {
				dl.schedule(now.Add(d), 0, torus.Packet{Payload: i})
			}
			if !slices.Equal(got, tc.inline) {
				t.Fatalf("delivered inline %v, want %v", got, tc.inline)
			}
			time.Sleep(time.Until(now.Add(slices.Max(tc.due))))
			dl.advance()
			if !slices.Equal(got, tc.want) {
				t.Fatalf("delivery order %v, want %v", got, tc.want)
			}
		})
	}

	// The delivery goroutine releases a delayed flight with no Advance.
	var got []int
	dl := newDelayLine(func(src int, p torus.Packet) { got = append(got, p.Payload.(int)) })
	dl.schedule(time.Now().Add(ms), 0, torus.Packet{Payload: 7})
	deadline := time.Now().Add(5 * time.Second)
	for dl.pending() {
		if time.Now().After(deadline) {
			t.Fatal("delay line never drained")
		}
		time.Sleep(100 * time.Microsecond)
	}
	dl.advance() // no-op barrier: ensures the background batch finished
	if !slices.Equal(got, []int{7}) {
		t.Fatalf("goroutine delivered %v, want [7]", got)
	}
	dl.close()
	dl.schedule(time.Now(), 0, torus.Packet{Payload: 9})
	if dl.pending() {
		t.Fatal("schedule after close queued a flight")
	}
}

func TestCloseDropsInFlight(t *testing.T) {
	tr, _ := New("faulty:delayrate=1,delaymax=1h", 2, 1)
	_ = tr.Endpoint(0).Inject(torus.Packet{Type: torus.MemoryFIFO, Dst: 1, Bytes: 8})
	if !tr.Pending() {
		t.Fatal("delayed packet should be in flight")
	}
	tr.Close()
	if tr.Pending() {
		t.Fatal("Close left packets in flight")
	}
	if got := pollAll(tr.Endpoint(1)); len(got) != 0 {
		t.Fatalf("packet delivered after Close: %v", got)
	}
}

// Node kills are not a spec option: the spec refuses kill=, and the
// faulty backend exposes fail-stop through the Killer interface instead.
func TestKillSpecParsing(t *testing.T) {
	for _, spec := range []string{
		"faulty:kill=1@1h", "faulty:seed=5,kill=0@1h+1@2h", "faulty:kill=7@1s",
	} {
		tr, err := New(spec, 2, 1)
		if err == nil {
			tr.Close()
			t.Errorf("New(%q) accepted, want error", spec)
			continue
		}
		if !strings.Contains(err.Error(), "unknown option") {
			t.Errorf("New(%q) error %q, want it to contain %q", spec, err, "unknown option")
		}
	}
	tr, err := New("faulty:seed=5", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	k, ok := tr.(Killer)
	if !ok {
		t.Fatal("faulty transport does not implement Killer")
	}
	if k.NodeKilled(0) || k.NodeKilled(1) {
		t.Fatal("a node is dead before any KillNode")
	}
	// Out-of-range ranks are ignored, not a panic.
	k.KillNode(-1)
	k.KillNode(7)
	if k.NodeKilled(-1) || k.NodeKilled(7) || k.NodeKilled(0) || k.NodeKilled(1) {
		t.Fatal("out-of-range KillNode changed node state")
	}
}

func TestKillNodeSilencesBothDirections(t *testing.T) {
	tr, err := New("faulty:seed=9", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	k := tr.(Killer)
	var hooked []int
	k.SetKillHook(func(rank int) { hooked = append(hooked, rank) })

	send := func(src, dst int) {
		t.Helper()
		if err := tr.Endpoint(src).Inject(torus.Packet{Type: torus.MemoryFIFO, Dst: dst, Bytes: 32}); err != nil {
			t.Fatal(err)
		}
	}
	send(0, 2)
	drain(t, tr)
	if got := pollAll(tr.Endpoint(2)); len(got) != 1 {
		t.Fatalf("pre-kill delivery failed: %d packets", len(got))
	}

	k.KillNode(2)
	k.KillNode(2) // idempotent: hook must fire once
	if !k.NodeKilled(2) || k.NodeKilled(1) {
		t.Fatal("NodeKilled state wrong")
	}
	if len(hooked) != 1 || hooked[0] != 2 {
		t.Fatalf("kill hook fired %v, want [2]", hooked)
	}

	send(0, 2) // toward the dead node: dropped
	send(2, 0) // from the dead node: dropped
	drain(t, tr)
	if got := pollAll(tr.Endpoint(0)); len(got) != 0 {
		t.Fatalf("dead node's packet delivered: %v", got)
	}
	s := tr.Stats()
	if s.KilledNodes != 1 || s.KilledDrops != 2 {
		t.Fatalf("stats = %+v, want KilledNodes=1 KilledDrops=2", s)
	}
	// Packets already sitting in the dead node's FIFOs are gone too.
	if tr.Endpoint(2).Pending() {
		t.Fatal("dead endpoint reports pending packets")
	}
	if _, ok := tr.Endpoint(2).Poll(0); ok {
		t.Fatal("dead endpoint polled a packet")
	}
}

func TestKillDropsInFlightPackets(t *testing.T) {
	tr, err := New("faulty:delayrate=1,delaymax=20ms", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	k := tr.(Killer)
	if err := tr.Endpoint(0).Inject(torus.Packet{Type: torus.MemoryFIFO, Dst: 1, Bytes: 8}); err != nil {
		t.Fatal(err)
	}
	k.KillNode(1) // dies while the packet is on the wire
	drain(t, tr)
	if got := pollAll(tr.Endpoint(1)); len(got) != 0 {
		t.Fatalf("in-flight packet survived the kill: %v", got)
	}
	if s := tr.Stats(); s.KilledDrops == 0 {
		t.Fatalf("in-flight drop not accounted: %+v", s)
	}
}

func TestWithSeed(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"inproc", "inproc"},
		{"contended:scale=2", "contended:scale=2"},
		{"faulty", "faulty:seed=9"},
		{"faulty:drop=0.1", "faulty:drop=0.1,seed=9"},
		{"faulty:seed=1,drop=0.1", "faulty:seed=9,drop=0.1"},
		{"faulty:drop=0.1,seed=1,truncate=0.01", "faulty:drop=0.1,seed=9,truncate=0.01"},
	}
	for _, tc := range cases {
		if got := WithSeed(tc.spec, 9); got != tc.want {
			t.Errorf("WithSeed(%q, 9) = %q, want %q", tc.spec, got, tc.want)
		}
	}
	// Every rewritten spec must still parse.
	for _, tc := range cases {
		tr, err := New(WithSeed(tc.spec, 9), 2, 1)
		if err != nil {
			t.Errorf("WithSeed(%q) produced unparseable spec: %v", tc.spec, err)
			continue
		}
		tr.Close()
	}
}
