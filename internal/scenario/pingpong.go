package scenario

import (
	"fmt"
	"sync/atomic"
	"time"

	"blueq/internal/converse"
	"blueq/internal/transport"
)

// PingPongResult is what one PingPong run measured.
type PingPongResult struct {
	Elapsed time.Duration // kickoff send → the execution that ended the run
	// Executed counts bounce-handler executions machine-wide: rounds+1
	// (the kickoff plus one per bounce) when every message ran exactly
	// once. More means a duplicate got past dedup.
	Executed int64
	Stats    transport.Stats
}

// PingPong bounces one 32-byte message between PE 0 and the last PE of m
// for rounds hops — the Fig 4/5 measurement, intra-node on a one-node
// machine and inter-node otherwise. m is built (and anything above it —
// charm, lb, ft — attached) by the caller, who passes the matching run
// function: m.Run, or the charm runtime's Run. Every hop draws a pooled
// envelope from the sending PE and the round count rides an atomic, not a
// boxed payload, so the steady state allocates nothing and an allocation
// the caller counts is the runtime's. A lost message wedges the bounce;
// the watchdog turns that into ErrWedged.
func PingPong(m *converse.Machine, run func(main func(pe *converse.PE)), rounds int) (PingPongResult, error) {
	last := m.NumPEs() - 1
	var failed atomic.Pointer[error]
	fail := func(err error) {
		failed.CompareAndSwap(nil, &err)
		m.Shutdown()
	}
	var executed atomic.Int64
	var begin time.Time
	var elapsed time.Duration
	var h int
	send := func(pe *converse.PE) {
		msg := pe.NewMessage()
		msg.Handler = h
		msg.Bytes = 32
		if err := pe.Send(last-pe.Id(), msg); err != nil {
			fail(fmt.Errorf("ping-pong send from PE %d: %w", pe.Id(), err))
		}
	}
	h = m.RegisterHandler(func(pe *converse.PE, _ *converse.Message) {
		switch n := executed.Add(1); {
		case n <= int64(rounds):
			send(pe)
		case n == int64(rounds)+1:
			elapsed = time.Since(begin)
			m.Shutdown()
		}
	})
	watchdog := armWatchdog(0, fail)
	defer watchdog.Stop()
	run(func(pe *converse.PE) {
		if pe.Id() == 0 {
			begin = time.Now()
			send(pe)
		}
	})
	res := PingPongResult{Elapsed: elapsed, Executed: executed.Load(), Stats: m.Transport().Stats()}
	if p := failed.Load(); p != nil {
		return res, *p
	}
	return res, nil
}
