package scenario

import (
	"flag"
	"testing"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/converse"
	"blueq/internal/flowctl"
	"blueq/internal/transport"
)

// Exactly-once delivery of the ping-pong in every runtime mode, over a
// clean, a lossy and a corrupting transport, bare and with flow control
// plus aggregation armed: the kickoff and every bounce execute once, no
// more (a duplicate past dedup) and no fewer (a loss wedges the run).
func TestPingPongExactlyOnce(t *testing.T) {
	const rounds = 300
	for _, mode := range []converse.Mode{converse.ModeNonSMP, converse.ModeSMP, converse.ModeSMPComm} {
		for _, spec := range []string{
			"inproc",
			"faulty:seed=7,drop=0.05,dup=0.02",
			"faulty:seed=7,corrupt=0.02,truncate=0.01,drop=0.02",
		} {
			for _, armed := range []bool{false, true} {
				name := mode.String() + "/" + spec
				if armed {
					name += "/flow+agg"
				}
				t.Run(name, func(t *testing.T) {
					tr, err := transport.New(spec, 2, 2)
					if err != nil {
						t.Fatal(err)
					}
					defer tr.Close()
					cfg := converse.Config{Nodes: 2, WorkersPerNode: 2, Mode: mode, Transport: tr}
					if armed {
						cfg.FlowControl, cfg.Aggregation = &flowctl.Config{}, &aggregate.Config{}
					}
					m, err := converse.NewMachine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := PingPong(m, m.Run, rounds)
					if err != nil {
						t.Fatal(err)
					}
					if res.Executed != rounds+1 {
						t.Fatalf("executed %d messages, want exactly %d (transport: %+v)", res.Executed, rounds+1, res.Stats)
					}
					if res.Elapsed <= 0 || res.Stats.Injected < rounds+1 {
						t.Fatalf("implausible result: %+v", res)
					}
				})
			}
		}
	}
}

// The shared flags keep the command's defaults, apply a non-zero seed to
// the transport spec, and arm aggregation from any of its three flags.
func TestFlags(t *testing.T) {
	f := Flags{Transport: "both", Seed: 1, FCWindow: 16}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Transport != "both" || f.Seed != 1 || f.FCWindow != 16 || f.Aggregation() != nil {
		t.Fatalf("defaults not kept: %+v", f)
	}
	if err := fs.Parse([]string{"-transport=faulty:seed=3,drop=0.1", "-seed=7", "-agg-delay=1ms"}); err != nil {
		t.Fatal(err)
	}
	if got, want := f.Spec(), "faulty:seed=7,drop=0.1"; got != want {
		t.Errorf("Spec() = %q, want %q", got, want)
	}
	if agc := f.Aggregation(); agc == nil || agc.MaxDelay != time.Millisecond {
		t.Errorf("Aggregation() = %+v, want armed with a 1 ms flush delay", agc)
	}
	f.Seed = 0
	if got, want := f.Spec(), "faulty:seed=3,drop=0.1"; got != want {
		t.Errorf("Spec() with no seed = %q, want the spec untouched (%q)", got, want)
	}
}
