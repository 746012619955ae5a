package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/fft3d"
	"blueq/internal/flowctl"
	"blueq/internal/m2m"
	"blueq/internal/md"
	"blueq/internal/mdsim"
	"blueq/internal/obs"
	"blueq/internal/transport"
)

// Every machine the benchmark builds has exactly two worker PEs, in one of
// two shapes, both ModeSMP (workers advance their own PAMI context): more
// runnable PEs than cores would measure the Go scheduler, not the runtime.
var (
	shapeIntra = converse.Config{Nodes: 1, WorkersPerNode: 2, Mode: converse.ModeSMP}
	shapeInter = converse.Config{Nodes: 2, WorkersPerNode: 1, Mode: converse.ModeSMP}
)

const (
	msgBytes      = 32    // ping-pong and stream payload size (modelled bytes)
	intraChunk    = 2000  // one-way hops per chunk, intra-node ping-pong (~1 ms)
	armedChunk    = 200   // one-way hops per chunk, armed inter-node ping-pong (~1.5 ms)
	streamBurst   = 16384 // messages per stream burst = one chunk
	stencilElems  = 1024  // elements of the stencil ring; one step = one chunk
	haloBytes     = 64
	fftN          = 16 // fft3d grid edge; one fwd+bwd iteration = one chunk
	mdStepsPerRun = 100
)

// runCfg is what a workload receives: the seed its inputs derive from, the
// phase durations, and the tracer (nil in the end-to-end run).
type runCfg struct {
	seed int64
	ph   phases
	tr   *tracer
}

// outcome is what a workload run returns.
type outcome struct {
	m         *meter
	heapMB    []float64 // live heap after each round, instance still reachable
	attempted int64     // ops whose outputs were checked (warm-up included)
	fails     map[string]failure
	counts    layerCounts
}

// failure is one kind of failed check: how many ops it spoiled and why.
type failure struct {
	ops  int64
	note string
}

// fail records that the check named key found n bad ops (lost, duplicated
// or wrong-valued). Checks run after every round on cumulative counters,
// so a key's count is replaced, not added to.
func (o *outcome) fail(key string, n int64, format string, args ...any) {
	if n <= 0 {
		n = 1
	}
	if o.fails == nil {
		o.fails = make(map[string]failure)
	}
	o.fails[key] = failure{n, fmt.Sprintf(format, args...)}
}

// failed is the number of ops that failed a check.
func (o *outcome) failed() int64 {
	var n int64
	for _, f := range o.fails {
		n += f.ops
	}
	return n
}

// layerCounts are event counts over the measured rounds read from the
// layers' public stats (the obs-registry counts are read separately, in the
// traced run only).
type layerCounts struct {
	injected   int64 // transport.Stats().Injected
	acks       int64 // pami ReliabilityStats.AcksSent, all nodes
	retries    int64 // pami ReliabilityStats.Retries, all nodes
	blocked    int64 // flowctl BlockedTotal
	batches    int64 // aggregate Stats.Batches, all nodes
	batchMsgs  int64
	flushIdle  int64
	flushTimer int64
	buildMS    float64 // md_step only: median mdsim.New time
}

// workload is one named closed-loop benchmark.
// BENCHMARK.json and README.md say why each one is here.
type workload struct {
	name string
	op   string // what one op is
	run  func(c runCfg) (*outcome, error)
}

var workloads = []workload{
	{"pingpong_intra", "one-way hop", func(c runCfg) (*outcome, error) {
		return runPingPong(c, intraChunk, false, plain(shapeIntra, false, c.seed))
	}},
	{"pingpong_inter_armed", "one-way hop", func(c runCfg) (*outcome, error) {
		return runPingPong(c, armedChunk, true, plain(shapeInter, true, c.seed))
	}},
	{"stream_inter_armed", "streamed message", runStream},
	{"charm_stencil", "element-task", runStencil},
	{"fft3d_m2m", "fwd+bwd iteration", runFFT},
	{"md_step", "MD step", runMD},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// armedTransport is the zero-fault unreliable transport: every fault rate
// is 0, so no operation fails, but Reliable() is false, which arms PAMI's
// sequence/ack/retransmit sublayer and the wire CRC.
func armedTransport(seed int64, nodes, fifos int) (transport.Transport, error) {
	return transport.New(fmt.Sprintf("faulty:seed=%d,unreliable=1", seed), nodes, fifos)
}

// machineStats snapshots the public counters of the layers under a machine.
func machineStats(m *converse.Machine) layerCounts {
	var lc layerCounts
	lc.injected = m.Transport().Stats().Injected
	for r := 0; r < m.NumNodes(); r++ {
		rs := m.PAMIClient().Node(r).ReliabilityStats()
		lc.acks += rs.AcksSent
		lc.retries += rs.Retries
		if agg := m.Node(r).Aggregator(); agg != nil {
			as := agg.Stats()
			lc.batches += as.Batches
			lc.batchMsgs += as.Messages
			lc.flushIdle += as.Flushes[aggregate.FlushIdle]
			lc.flushTimer += as.Flushes[aggregate.FlushTimer]
		}
	}
	if fc := m.FlowController(); fc != nil {
		lc.blocked = fc.BlockedTotal()
	}
	return lc
}

func (a layerCounts) minus(b layerCounts) layerCounts {
	a.injected -= b.injected
	a.acks -= b.acks
	a.retries -= b.retries
	a.blocked -= b.blocked
	a.batches -= b.batches
	a.batchMsgs -= b.batchMsgs
	a.flushIdle -= b.flushIdle
	a.flushTimer -= b.flushTimer
	return a
}

// watch wires the parts every persistent-machine workload shares: layer
// counters are baselined at the first measured chunk (and the obs registry
// zeroed in the traced run), outputs are checked after every round, and
// the live heap is read there with the machine still running.
func watch(o *outcome, c runCfg, m *converse.Machine, check func()) {
	var base layerCounts
	o.m.betweenRounds = func() {
		check()
		o.heapMB = append(o.heapMB, heapLiveMB())
		if len(o.m.rounds) == c.ph.rounds {
			o.counts = machineStats(m).minus(base)
		}
	}
	o.m.onMeasure = func() {
		base = machineStats(m)
		if c.tr != nil {
			obs.Default.Reset()
		}
	}
}

// armedChecks counts what must stay zero on the zero-fault armed stack.
func armedChecks(o *outcome, m *converse.Machine) {
	s := m.Transport().Stats()
	if n := s.Dropped + s.Duplicated + s.Corrupted + s.Truncated + s.KilledDrops + s.LinkDrops; n != 0 {
		o.fail("transport", n, "transport lost or damaged %d packets at zero fault rate", n)
	}
	if n := m.PAMIClient().CRCFails(); n != 0 {
		o.fail("crc", n, "%d CRC failures", n)
	}
	if fc := m.FlowController(); fc != nil && fc.ShedCount() != 0 {
		o.fail("shed", fc.ShedCount(), "flow control shed %d messages", fc.ShedCount())
	}
}

// built is a constructed, not yet started machine.
type built struct {
	m     *converse.Machine
	run   func(init func(pe *converse.PE)) // Machine.Run, or charm's Runtime.Run when a layer sits on top
	close func()                           // releases what the machine does not own (a caller-supplied transport)
	// quiet is true when only the driver's messages run on the schedulers,
	// so PE.Executed() must equal the driver's own send count.
	quiet bool
}

// buildMachine builds a 2-PE machine in the given shape, bare or with the
// whole optional stack armed (unreliable transport ⇒ reliability + CRC,
// flow control, aggregation — all at their defaults).
func buildMachine(shape converse.Config, armed bool, seed int64) (*built, error) {
	cfg := shape
	closeTr := func() {}
	if armed {
		tr, err := armedTransport(seed, cfg.Nodes, cfg.WorkersPerNode)
		if err != nil {
			return nil, err
		}
		cfg.Transport = tr
		cfg.FlowControl = &flowctl.Config{}
		cfg.Aggregation = &aggregate.Config{}
		closeTr = tr.Close
	}
	m, err := converse.NewMachine(cfg)
	if err != nil {
		closeTr()
		return nil, err
	}
	if armed && !m.PAMIClient().CRCArmed() {
		closeTr()
		return nil, fmt.Errorf("bench: CRC not armed over %s", m.Transport())
	}
	return &built{m: m, run: m.Run, close: closeTr, quiet: true}, nil
}

// plain is buildMachine as the build function runPingPong takes.
func plain(shape converse.Config, armed bool, seed int64) func() (*built, error) {
	return func() (*built, error) { return buildMachine(shape, armed, seed) }
}

// padCount keeps per-PE driver counters on separate cache lines: each is
// written by one PE's scheduler goroutine only.
type padCount struct {
	n int64
	_ [56]byte
}

// runPingPong bounces one message between PE 0 and PE 1 of the machine
// build returns. One op is a one-way hop; a chunk is chunkHops hops,
// closed on PE 0.
func runPingPong(c runCfg, chunkHops int, armed bool, build func() (*built, error)) (*outcome, error) {
	o := &outcome{m: newMeter(c.ph, time.Now())}
	b, err := build()
	if err != nil {
		return nil, err
	}
	defer b.close()
	m := b.m
	var h int
	var sent, execd [2]padCount
	hops := 0
	tr := c.tr
	h = m.RegisterHandler(func(pe *converse.PE, _ *converse.Message) {
		id := pe.Id()
		hid, hstart := tr.open(id)
		execd[id].n++
		if id == 0 {
			hops += 2
			if hops >= chunkHops {
				hops = 0
				tr.endChunk()
				if !o.m.chunk(chunkHops) {
					m.Shutdown()
					return
				}
				tr.beginChunk()
			}
		}
		r := pe.NewMessage()
		r.Handler = h
		r.Bytes = msgBytes
		sent[id].n++
		if err := tracedSend(tr, pe, 1-id, r, hid); err != nil {
			o.fail("send", 1, "send: %v", err)
		}
		tr.done(id, spanHandler, hid, tr.inChunk(), hstart)
	})
	check := func() {
		// One message is in flight and PE 0 is executing it: every message
		// sent so far has been executed exactly once, by the driver's count
		// and by the schedulers'.
		s := sent[0].n + sent[1].n
		if e := execd[0].n + execd[1].n; e != s {
			o.fail("handler", abs64(e-s), "handler ran %d times for %d sends", e, s)
		}
		if e := m.PE(0).Executed() + m.PE(1).Executed(); b.quiet && e != s {
			o.fail("executed", abs64(e-s), "schedulers executed %d messages for %d sends", e, s)
		}
		if armed {
			armedChecks(o, m)
		}
		o.attempted = s
	}
	watch(o, c, m, check)
	b.run(func(pe *converse.PE) {
		if pe.Id() != 0 {
			return
		}
		o.m.begin()
		tr.beginChunk()
		k := pe.NewMessage()
		k.Handler = h
		k.Bytes = msgBytes
		sent[0].n++
		if err := pe.Send(1, k); err != nil {
			o.fail("send", 1, "kick: %v", err)
		}
	})
	return o, nil
}

// tracedSend is pe.Send with a send span around it in the traced run.
func tracedSend(tr *tracer, pe *converse.PE, dst int, msg *converse.Message, parent int64) error {
	sid, start := tr.open(pe.Id())
	err := pe.Send(dst, msg)
	tr.done(pe.Id(), spanSend, sid, parent, start)
	return err
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// runStream sends bursts of streamBurst messages from PE 0 to PE 1 over the
// armed machine; PE 1 acknowledges each complete burst, and the ack closes
// the chunk and starts the next burst. One op is one streamed message.
func runStream(c runCfg) (*outcome, error) {
	o := &outcome{m: newMeter(c.ph, time.Now())}
	b, err := buildMachine(shapeInter, true, c.seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	m := b.m
	tr := c.tr
	var hData, hAck int
	var sent, recvd, acks padCount
	burst := func(pe *converse.PE, parent int64) {
		for i := 0; i < streamBurst; i++ {
			msg := pe.NewMessage()
			msg.Handler = hData
			msg.Bytes = msgBytes
			sent.n++
			if err := tracedSend(tr, pe, 1, msg, parent); err != nil {
				o.fail("send", 1, "send: %v", err)
			}
		}
	}
	hData = m.RegisterHandler(func(pe *converse.PE, _ *converse.Message) {
		recvd.n++
		if recvd.n%streamBurst != 0 {
			return
		}
		ack := pe.NewMessage()
		ack.Handler = hAck
		ack.Bytes = msgBytes
		if err := tracedSend(tr, pe, 0, ack, 0); err != nil {
			o.fail("send", 1, "ack: %v", err)
		}
	})
	hAck = m.RegisterHandler(func(pe *converse.PE, _ *converse.Message) {
		acks.n++
		tr.endChunk()
		if !o.m.chunk(streamBurst) {
			m.Shutdown()
			return
		}
		chunk := tr.beginChunk()
		hid, hstart := tr.open(0)
		burst(pe, hid)
		tr.done(0, spanHandler, hid, chunk, hstart)
	})
	check := func() {
		// The ack PE 0 is executing proves PE 1 counted a whole burst; with
		// nothing else in flight every streamed message arrived exactly once.
		if recvd.n != sent.n {
			o.fail("stream", abs64(recvd.n-sent.n), "PE 1 executed %d messages for %d sent", recvd.n, sent.n)
		}
		if e := m.PE(1).Executed(); e != sent.n {
			o.fail("executed", abs64(e-sent.n), "PE 1 scheduler executed %d messages for %d sent", e, sent.n)
		}
		if e := m.PE(0).Executed(); e != acks.n {
			o.fail("acks", abs64(e-acks.n), "PE 0 scheduler executed %d messages for %d acks", e, acks.n)
		}
		armedChecks(o, m)
		o.attempted = sent.n
	}
	watch(o, c, m, check)
	b.run(func(pe *converse.PE) {
		if pe.Id() != 0 {
			return
		}
		o.m.begin()
		tr.beginChunk()
		burst(pe, 0)
	})
	return o, nil
}

// wantStencilSum is what every stencil step must reduce to. A variable only
// so that a test can set a wrong value and see the command fail.
var wantStencilSum = float64(stencilElems)

// stencilElem is one element of the Task Bench stencil ring.
type stencilElem struct {
	started, done, halos int64
}

// runStencil runs a 1D periodic stencil over a stencilElems-element chare
// array at zero task grain: every step each element sends a halo to both
// neighbours and, once it holds both of its own, contributes 1 to a sum
// reduction whose target broadcasts the next step. One op is one
// element-task; one chunk is one step.
func runStencil(c runCfg) (*outcome, error) {
	o := &outcome{m: newMeter(c.ph, time.Now())}
	rt, err := charm.NewRuntime(shapeInter)
	if err != nil {
		return nil, err
	}
	m := rt.Machine()
	tr := c.tr
	arr := rt.NewArray("stencil", stencilElems, func(int) charm.Element { return &stencilElem{} })
	one := []float64{1}
	var steps, badSums int64
	var eStep, eHalo int
	var target charm.ReductionTarget
	finish := func(pe *converse.PE, e *stencilElem, parent int64) {
		for e.done < e.started && e.halos >= 2*(e.done+1) {
			e.done++
			// The zero-grain task body would run here.
			sid, start := tr.open(pe.Id())
			if err := arr.Contribute(pe, uint64(e.done), one, charm.ReduceSum, target); err != nil {
				o.fail("send", 1, "contribute: %v", err)
			}
			tr.done(pe.Id(), spanCollect, sid, parent, start)
		}
	}
	send := func(pe *converse.PE, idx, entry int, parent int64) {
		sid, start := tr.open(pe.Id())
		if err := arr.Send(pe, idx, entry, nil, haloBytes); err != nil {
			o.fail("send", 1, "array send: %v", err)
		}
		tr.done(pe.Id(), spanSend, sid, parent, start)
	}
	entry := func(body func(pe *converse.PE, e *stencilElem, idx int, hid int64)) charm.EntryFn {
		return func(pe *converse.PE, el charm.Element, idx int, _ any) {
			hid, hstart := tr.open(pe.Id())
			body(pe, el.(*stencilElem), idx, hid)
			tr.done(pe.Id(), spanHandler, hid, tr.inChunk(), hstart)
		}
	}
	eStep = arr.Entry(entry(func(pe *converse.PE, e *stencilElem, idx int, hid int64) {
		e.started++
		send(pe, (idx+stencilElems-1)%stencilElems, eHalo, hid)
		send(pe, (idx+1)%stencilElems, eHalo, hid)
		finish(pe, e, hid)
	}))
	eHalo = arr.Entry(entry(func(pe *converse.PE, e *stencilElem, _ int, hid int64) {
		e.halos++
		finish(pe, e, hid)
	}))
	broadcast := func(pe *converse.PE) {
		chunk := tr.beginChunk()
		sid, start := tr.open(0)
		if err := arr.Broadcast(pe, eStep, nil, 8); err != nil {
			o.fail("send", 1, "broadcast: %v", err)
		}
		tr.done(0, spanCollect, sid, chunk, start)
	}
	target = func(pe *converse.PE, result []float64) {
		steps++
		if len(result) != 1 || result[0] != wantStencilSum {
			badSums++
		}
		tr.endChunk()
		if !o.m.chunk(stencilElems) {
			rt.Shutdown()
			return
		}
		broadcast(pe)
	}
	check := func() {
		// The reduction that just fired needed every element's contribution
		// for this step, so every element's counters are final and ordered
		// before this read by the reduction messages.
		if badSums != 0 {
			o.fail("sum", badSums*stencilElems, "%d steps reduced to a sum other than %g", badSums, wantStencilSum)
		}
		var bad int64
		for i := 0; i < stencilElems; i++ {
			e := arr.Element(i).(*stencilElem)
			if e.started != steps || e.done != steps || e.halos != 2*steps {
				bad++
			}
		}
		if bad != 0 {
			o.fail("elems", bad, "%d elements disagree with %d steps run (step, task or halo count)", bad, steps)
		}
		o.attempted = steps * stencilElems
	}
	watch(o, c, m, check)
	rt.Run(func(pe *converse.PE) {
		o.m.begin()
		broadcast(pe)
	})
	return o, nil
}

// fftInput returns the seeded 16³ input grid.
func fftInput(seed int64) *fft3d.Grid {
	rng := rand.New(rand.NewSource(seed))
	g := fft3d.NewGrid(fftN, fftN, fftN)
	for i := range g.Data {
		g.Data[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return g
}

// maxAbsDiff is the largest |a-b| over two equally shaped grids.
func maxAbsDiff(a, b *fft3d.Grid) float64 {
	worst := 0.0
	for i, v := range a.Data {
		d := v - b.Data[i]
		if x := math.Hypot(real(d), imag(d)); x > worst {
			worst = x
		}
	}
	return worst
}

const fftTolerance = 1e-9

// runFFT iterates the pencil-decomposed 16³ FFT over many-to-many bursts.
// One op (and one chunk) is a forward plus a backward transform.
func runFFT(c runCfg) (*outcome, error) {
	o := &outcome{m: newMeter(c.ph, time.Now())}
	rt, err := charm.NewRuntime(shapeInter)
	if err != nil {
		return nil, err
	}
	m := rt.Machine()
	tr := c.tr
	input := fftInput(c.seed)
	want := input.Clone()
	fft3d.SerialForward(want)
	eng, err := fft3d.New(rt, m2m.NewManager(m), fft3d.Config{
		NX: fftN, NY: fftN, NZ: fftN, Transport: fft3d.M2M, CaptureForward: true,
		Input: func(x, y, z int) complex128 { return input.At(x, y, z) },
	})
	if err != nil {
		return nil, err
	}
	var iters, checked, badIters int64
	start := func(pe *converse.PE) {
		chunk := tr.beginChunk()
		sid, sstart := tr.open(0)
		if err := eng.Start(pe); err != nil {
			o.fail("send", 1, "fft start: %v", err)
		}
		tr.done(0, spanSend, sid, chunk, sstart)
	}
	eng.SetOnComplete(func(pe *converse.PE, _ int) {
		iters++
		tr.endChunk()
		if !o.m.chunk(1) {
			rt.Shutdown()
			return
		}
		start(pe)
	})
	check := func() {
		// Between iterations the grid holds the round-tripped input and the
		// capture the latest forward transform. An error in any iteration
		// since the last check persists in the grid, so a failed check
		// spoils every iteration it covers.
		fwd, back := maxAbsDiff(eng.Forward(), want), eng.RoundTripError()
		if fwd > fftTolerance || back > fftTolerance || math.IsNaN(fwd+back) {
			badIters += iters - checked
			o.fail("fft", badIters, "forward differs from SerialForward by %.3g, fwd+bwd from the input by %.3g (tolerance %.0e)", fwd, back, fftTolerance)
		}
		if n := eng.Iterations(); n != iters {
			o.fail("iters", abs64(n-iters), "engine completed %d iterations, driver saw %d", n, iters)
		}
		checked = iters
		o.attempted = iters
	}
	watch(o, c, m, check)
	rt.Run(func(pe *converse.PE) {
		o.m.begin()
		start(pe)
	})
	return o, nil
}

// mdDeck is the molecular system and parameters of md_step: the
// BenchmarkNativeParallelMDStep deck on the benchmark's 2-PE shape.
type mdDeck struct {
	sys       *md.System
	nonbonded md.NonbondedParams
	pme       mdsim.PMEConfig
	dt        float64
}

func newMDDeck(seed int64) mdDeck {
	sys := md.WaterBox(md.WaterBoxConfig{Molecules: 64, Seed: seed})
	sys.Thermalize(0.3, rand.New(rand.NewSource(seed+1)))
	return mdDeck{
		sys:       sys,
		nonbonded: md.NonbondedParams{Cutoff: 4, SwitchDist: 3.2, EwaldBeta: 0.8},
		pme: mdsim.PMEConfig{Grid: [3]int{16, 16, 16}, Order: 4, Beta: 0.8, Every: 4,
			Transport: fft3d.M2M, ExchangeM2M: true},
		dt: 1e-4,
	}
}

// cloneSystem copies the dynamic state so every run starts from the same
// positions and velocities.
func cloneSystem(s *md.System) *md.System {
	out := *s
	out.Pos = append([]md.Vec3(nil), s.Pos...)
	out.Vel = append([]md.Vec3(nil), s.Vel...)
	return &out
}

func (d mdDeck) newSim(steps int) (*mdsim.Simulation, error) {
	pme := d.pme
	return mdsim.New(mdsim.Config{
		System: cloneSystem(d.sys), Nonbonded: d.nonbonded, DT: d.dt, Steps: steps,
		PME: &pme, Runtime: shapeInter,
	})
}

// mdEnergyTolerance is the relative difference allowed between the energies
// of two runs of the same deck: patches add their energy terms in arrival
// order, so the last bits of a sum depend on message timing (observed
// ~1e-14); a wrong force or a lost atom moves an energy by far more.
const mdEnergyTolerance = 1e-9

// reportsAgree compares two reports of the same deck: counters exactly,
// energies to mdEnergyTolerance.
func reportsAgree(a, b mdsim.Report) bool {
	if a.Steps != b.Steps || a.ForceEvals != b.ForceEvals || a.RecipEvals != b.RecipEvals || a.Migrations != b.Migrations {
		return false
	}
	close := func(x, y float64) bool {
		return math.Abs(x-y) <= mdEnergyTolerance*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	return close(a.Kinetic, b.Kinetic) && close(a.Potential, b.Potential) && close(a.LJEnergy, b.LJEnergy) &&
		close(a.ElecEnergy, b.ElecEnergy) && close(a.BondEnergy, b.BondEnergy) && close(a.AngleEnergy, b.AngleEnergy) &&
		close(a.DihedralEnergy, b.DihedralEnergy)
}

// runMD runs the mini-NAMD: each chunk builds a fresh simulation of the
// same deck (untimed) and times one mdStepsPerRun-step Run. One op is one
// MD step. The loop runs on the calling goroutine; the two PEs live inside
// Run.
func runMD(c runCfg) (*outcome, error) {
	o := &outcome{m: newMeter(c.ph, time.Now())}
	tr := c.tr
	deck := newMDDeck(c.seed)
	var first mdsim.Report
	var runs, bad int64
	var builds []float64
	var last *mdsim.Simulation
	o.m.betweenRounds = func() { o.heapMB = append(o.heapMB, heapLiveMB()) }
	if tr != nil {
		o.m.onMeasure = obs.Default.Reset
	}
	o.m.begin()
	for {
		b0 := time.Now()
		sim, err := deck.newSim(mdStepsPerRun)
		if err != nil {
			return nil, err
		}
		builds = append(builds, float64(time.Since(b0))/1e6)
		last = sim
		chunk := tr.beginChunk()
		sid, sstart := tr.open(0)
		measured := !o.m.warming
		o.m.restart()
		rep := sim.Run()
		more := o.m.chunk(mdStepsPerRun)
		if measured {
			// Every run has a bare machine of its own: its transport's count
			// starts at 0 and the armed layers' counters stay there.
			o.counts.injected += sim.Runtime().Machine().Transport().Stats().Injected
		}
		tr.done(0, spanSend, sid, chunk, sstart)
		tr.endChunk()
		// Every run integrates the same deck, so every report must agree
		// with the first one.
		runs++
		if runs == 1 {
			first = rep
		}
		if !reportsAgree(rep, first) || rep.Steps != mdStepsPerRun || rep.ForceEvals != mdStepsPerRun+1 {
			bad++
			o.fail("report", bad*mdStepsPerRun, "run %d report %+v differs from the first run's %+v", runs, rep, first)
		}
		if !more {
			break
		}
	}
	o.attempted = runs * mdStepsPerRun
	o.counts.buildMS = median(builds)
	_ = last.NumPatches() // the simulation just run stays reachable through each heap read
	return o, nil
}
