package scenario

import (
	"flag"
	"fmt"
	"sync/atomic"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/converse"
	"blueq/internal/transport"
)

// Flags are the runtime settings cmd/experiments and cmd/soak both expose,
// declared once so the two commands cannot drift: a command fills in its
// own defaults, calls Register, and reads the fields back after flag.Parse.
type Flags struct {
	Transport     string        // -transport
	Seed          int64         // -seed
	FCWindow      int           // -fc-window
	FCOverflowCap int           // -fc-overflow-cap
	Agg           bool          // -agg
	AggBytes      int           // -agg-bytes
	AggDelay      time.Duration // -agg-delay
}

// Register declares the flags on fs with f's current values as defaults.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Transport, "transport", f.Transport,
		"transport spec: inproc, contended[:scale=F], faulty[:seed=N,drop=F,dup=F,corrupt=F,truncate=F,delayrate=F,delaymax=D]")
	fs.Int64Var(&f.Seed, "seed", f.Seed, "seed for faulty transports and kill schedules (non-zero overrides any seed= in -transport)")
	fs.IntVar(&f.FCWindow, "fc-window", f.FCWindow, "flow-control credit window per (src,dst) node pair (0 = flowctl's default)")
	fs.IntVar(&f.FCOverflowCap, "fc-overflow-cap", f.FCOverflowCap, "flow-control cap on the lockless overflow queue (0 = flowctl's default)")
	fs.BoolVar(&f.Agg, "agg", f.Agg, "arm the per-destination message aggregation layer")
	fs.IntVar(&f.AggBytes, "agg-bytes", f.AggBytes, "aggregation batch size in bytes (0 = aggregate's default; non-zero implies -agg)")
	fs.DurationVar(&f.AggDelay, "agg-delay", f.AggDelay, "aggregation max flush delay (0 = aggregate's default; non-zero implies -agg)")
}

// Spec is the -transport spec with a non-zero -seed applied.
func (f *Flags) Spec() string {
	if f.Seed == 0 {
		return f.Transport
	}
	return transport.WithSeed(f.Transport, f.Seed)
}

// Aggregation is the aggregation config the flags ask for, nil when none
// of them arms the layer.
func (f *Flags) Aggregation() *aggregate.Config {
	if !f.Agg && f.AggBytes == 0 && f.AggDelay == 0 {
		return nil
	}
	return &aggregate.Config{MaxBatchBytes: f.AggBytes, MaxDelay: f.AggDelay}
}

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
