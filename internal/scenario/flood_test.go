package scenario

import (
	"strings"
	"testing"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/converse"
	"blueq/internal/flowctl"
)

// Flood holds both verdicts over a clean, a lossy and a corrupting
// transport; bare, with flow control plus aggregation armed, and with a
// slowed consumer behind tight flow-control caps; bounded by a message
// count and by a duration. The chaos rows run the slowed shape over every
// hostile wire, aggregation off and on, per seed.
func TestFloodVerdicts(t *testing.T) {
	slowed := FloodConfig{Slow: slow, RingSize: 64, FlowControl: slowFC()}
	shapes := []struct {
		name string
		cfg  FloodConfig
	}{
		{"bare", FloodConfig{}},
		{"flow+agg", FloodConfig{FlowControl: &flowctl.Config{}, Aggregation: &aggregate.Config{}}},
		{"slowed", slowed},
	}
	for _, spec := range []string{
		"inproc",
		"faulty:seed=7,drop=0.05,dup=0.02",
		"faulty:seed=7,corrupt=0.02,truncate=0.01,drop=0.02",
	} {
		for _, shape := range shapes {
			for _, bound := range []string{"count", "time"} {
				t.Run(spec+"/"+shape.name+"/"+bound, func(t *testing.T) {
					cfg := shape.cfg
					cfg.Transport = spec
					if bound == "count" {
						cfg.Count = 400
					} else {
						cfg.Duration = 20 * time.Millisecond
					}
					floodRow(t, cfg)
				})
			}
		}
	}
	for _, r := range chaosRows(hostile...) {
		t.Run("chaos/"+r.name, func(t *testing.T) {
			replayHint(t, r.seed)
			cfg := slowed
			cfg.Transport, cfg.Aggregation, cfg.Count = r.spec, r.aggregation(), 400
			floodRow(t, cfg)
		})
	}
}

// floodRow runs one flood of 8-byte messages and checks both verdicts,
// the count, and that a slowed consumer really hit backpressure.
func floodRow(t *testing.T, cfg FloodConfig) {
	t.Helper()
	cfg.Bytes = 8
	res, err := Flood(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ExactlyOnce(); err != nil {
		t.Error(err)
	}
	if err := res.Bounded(); err != nil {
		t.Error(err)
	}
	if res.Sent == 0 || (cfg.Count > 0 && res.Sent != int64(cfg.Count)) {
		t.Errorf("sent %d messages of Count %d", res.Sent, cfg.Count)
	}
	if res.Send <= 0 || res.InWindow > res.Sent || res.Stats.Injected < res.Sent/128 {
		t.Errorf("implausible result: %+v", res)
	}
	if cfg.Slow > 0 && (res.ResidentBound == 0 || res.Parked == 0) {
		t.Errorf("slowed consumer never hit backpressure — the bound was not exercised: %+v", res)
	}
}

// Messages above the rendezvous threshold cross as header, pull and ack —
// one of each per message — over a clean network and over one that drops,
// duplicates, delays, corrupts and truncates: the header and the ack are
// ordinary PAMI sends, so the reliability sublayer's retransmissions and
// sequence dedup are all the repair the protocol has, and all it needs.
func TestFloodRendezvous(t *testing.T) {
	for _, spec := range []string{
		"inproc",
		"faulty:seed=41,drop=0.2,dup=0.1,delayrate=0.3,delaymax=2ms,corrupt=0.05,truncate=0.02",
	} {
		t.Run(spec, func(t *testing.T) {
			const count = 500
			res, err := Flood(FloodConfig{Transport: spec, Count: count, Bytes: converse.RendezvousThreshold + 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.ExactlyOnce(); err != nil {
				t.Error(err)
			}
			if res.Sent != count || res.rzvStarted != count || res.rzvPulled != count {
				t.Errorf("sent %d, headers %d, pulls %d: want %d of each", res.Sent, res.rzvStarted, res.rzvPulled, count)
			}
			if lossy := spec != "inproc"; lossy != (res.Retries > 0) {
				t.Errorf("Retries = %d over %s", res.Retries, spec)
			}
		})
	}
}

// A paced flood offers its rate and no more; a config with both bounds or
// neither is refused.
func TestFloodPacingAndBounds(t *testing.T) {
	res, err := Flood(FloodConfig{Duration: 100 * time.Millisecond, Rate: 5000, Bytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ExactlyOnce(); err != nil {
		t.Fatal(err)
	}
	// 5 messages a tick for at most 100 ticks.
	if res.Sent == 0 || res.Sent > 500 {
		t.Fatalf("paced at 5000/s for 100 ms but sent %d", res.Sent)
	}
	for _, cfg := range []FloodConfig{{}, {Count: 10, Duration: time.Second}} {
		if _, err := Flood(cfg); err == nil {
			t.Errorf("Flood(%+v) accepted", cfg)
		}
	}
}

// The ledger turns one skipped id and one doubled id each into a verdict
// naming the count.
func TestFloodLedger(t *testing.T) {
	const sent = 100
	run := func(skip, double int) error {
		var l ledger
		for id := 0; id < sent; id++ {
			if id == skip {
				continue
			}
			l.record(id)
			if id == double {
				l.record(id)
			}
		}
		res := FloodResult{Sent: sent}
		res.Distinct, res.Duplicated = l.tally()
		return res.ExactlyOnce()
	}
	if err := run(-1, -1); err != nil {
		t.Fatalf("clean ledger: %v", err)
	}
	if err := run(17, -1); err == nil || !strings.Contains(err.Error(), "sent 100, distinct 99, duplicated 0") {
		t.Errorf("skipped id: %v", err)
	}
	if err := run(-1, 42); err == nil || !strings.Contains(err.Error(), "sent 100, distinct 100, duplicated 1") {
		t.Errorf("doubled id: %v", err)
	}
}

// The residency verdict names whichever bound was crossed or credit
// leaked, and promises nothing when flow control was not armed.
func TestResidencyBounded(t *testing.T) {
	ok := Residency{PeakResident: 10, ResidentBound: 10, PeakReorder: 5, ReorderCap: 5}
	if err := ok.Bounded(); err != nil {
		t.Errorf("at the bound: %v", err)
	}
	if err := (Residency{PeakResident: 1 << 20}).Bounded(); err != nil {
		t.Errorf("no flow control, so no promise: %v", err)
	}
	over := ok
	over.PeakResident++
	if err := over.Bounded(); err == nil || !strings.Contains(err.Error(), "peaked at 11, bound 10") {
		t.Errorf("resident over: %v", err)
	}
	over = ok
	over.PeakReorder++
	if err := over.Bounded(); err == nil || !strings.Contains(err.Error(), "6 > 5") {
		t.Errorf("reorder over: %v", err)
	}
	over = ok
	over.Charged = 1
	if err := over.Bounded(); err == nil || !strings.Contains(err.Error(), "1 credits still charged") {
		t.Errorf("leaked credit: %v", err)
	}
}
