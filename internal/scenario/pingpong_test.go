package scenario

import (
	"testing"

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
			// The lossy rows run in a bubble. No timer runs over inproc,
			// so no virtual time would pass and Elapsed would read 0.
			run := bubble
			if spec == "inproc" {
				run = func(t *testing.T, f func(t *testing.T)) { f(t) }
			}
			for _, armed := range []bool{false, true} {
				name := mode.String() + "/" + spec
				if armed {
					name += "/flow+agg"
				}
				t.Run(name, func(t *testing.T) {
					run(t, func(t *testing.T) {
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
				})
			}
		}
	}
}
