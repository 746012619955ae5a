package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/fft"
	"blueq/internal/fft3d"
	"blueq/internal/flowctl"
	"blueq/internal/ft"
	"blueq/internal/l2atomic"
	"blueq/internal/lb"
	"blueq/internal/lockless"
	"blueq/internal/m2m"
	"blueq/internal/md"
	"blueq/internal/mempool"
	"blueq/internal/pami"
	"blueq/internal/pme"
	"blueq/internal/torus"
	"blueq/internal/transport"
	"blueq/internal/wakeup"
)

// A rung is an isolated timing of one layer's public calls, made from
// outside the layer. Rungs run in the traced run only, after the workload,
// on an otherwise idle process.

const rungBatches = 9

// timeRung calls batch(n) once to warm up, then rungBatches more times,
// and returns the median time per item in ns.
func timeRung(n int, batch func(n int)) float64 {
	batch(n)
	xs := make([]float64, rungBatches)
	for i := range xs {
		t0 := time.Now()
		batch(n)
		xs[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(xs)
}

// rungSink keeps results the compiler must not discard.
var rungSink any

// runRungs times every workload-independent rung. scale < 1 shortens the
// closed-loop rungs (smoke tests).
func runRungs(seed int64, scale float64) (map[string]float64, error) {
	r := make(map[string]float64)
	const n = 20000

	var bc l2atomic.BoundedCounter
	bc.Reset(0, 1)
	r["l2atomic.bounded_inc_ns"] = timeRung(n, func(n int) {
		for i := 0; i < n; i++ {
			bc.BoundedLoadIncrement()
			bc.StoreAddBound(1)
		}
	})

	q := lockless.NewL2Queue(0)
	item := any(&struct{}{})
	r["lockless.enq_deq_ns"] = timeRung(n, func(n int) {
		for i := 0; i < n; i++ {
			q.Enqueue(item)
			rungSink, _ = q.Dequeue()
		}
	})
	batch := make([]any, aggregate.DefaultMaxBatchMsgs)
	for i := range batch {
		batch[i] = item
	}
	r["lockless.enq_batch_ns_per_msg"] = timeRung(n/len(batch), func(n int) {
		for i := 0; i < n; i++ {
			q.EnqueueBatch(batch)
			for range batch {
				rungSink, _ = q.Dequeue()
			}
		}
	}) / float64(len(batch))

	envs := mempool.NewEnvPool[converse.Message](1, 0)
	envs.Put(0, 0, envs.Get(0))
	r["mempool.env_get_put_ns"] = timeRung(n, func(n int) {
		for i := 0; i < n; i++ {
			envs.Put(0, 0, envs.Get(0))
		}
	})
	alloc := mempool.NewPoolAllocator(1, 0)
	r["mempool.alloc_free_ns"] = timeRung(n, func(n int) {
		for i := 0; i < n; i++ {
			alloc.Free(0, alloc.Alloc(0, 512))
		}
	})

	r["wakeup.signal_wake_ns"] = rungWakeup()

	net := torus.NewNetwork(torus.MustNew(torus.ShapeForNodes(2)), 1)
	r["torus.inject_poll_ns"] = timeRung(n, func(n int) {
		for i := 0; i < n; i++ {
			_ = net.MU(0).Inject(torus.Packet{Type: torus.MemoryFIFO, Dst: 1, Bytes: msgBytes})
			rungSink, _ = net.MU(1).Poll(0)
		}
	})

	ftr, err := armedTransport(seed, 2, 1)
	if err != nil {
		return nil, err
	}
	r["transport.faulty_hop_ns"] = timeRung(2000, func(n int) {
		src, dst := ftr.Endpoint(0), ftr.Endpoint(1)
		for i := 0; i < n; i++ {
			_ = src.Inject(torus.Packet{Type: torus.MemoryFIFO, Dst: 1, Bytes: msgBytes})
			for {
				if _, ok := dst.Poll(0); ok {
					break
				}
				runtime.Gosched() // the delay-line goroutine delivers
			}
		}
	})
	ftr.Close()

	r["pami.send_dispatch_ns"] = rungPAMI(transport.NewInproc(torus.MustNew(torus.ShapeForNodes(2)), 1), n, false)
	if r["pami.send_dispatch_armed_ns"], err = rungPAMIArmed(seed, true, false); err != nil {
		return nil, err
	}
	// The CRC's cost is the difference of two armed rungs; only the inline
	// ones are steady enough to subtract.
	withCRC, err := rungPAMIArmed(seed, true, true)
	if err != nil {
		return nil, err
	}
	noCRC, err := rungPAMIArmed(seed, false, true)
	if err != nil {
		return nil, err
	}
	r["pami.crc_ns"] = withCRC - noCRC

	win := flowctl.NewController(flowctl.Config{}, 2).Window(0, 1)
	r["flowctl.acquire_release_ns"] = timeRung(n, func(n int) {
		for i := 0; i < n; i++ {
			win.Acquire(nil)
			win.Release(1)
		}
	})

	var agg *aggregate.Aggregator
	agg = aggregate.New(aggregate.Config{}, 0, 2, mempool.NewPoolAllocator(1, 0),
		func(_ int, b *aggregate.Batch) { agg.Recycle(b) })
	full := agg.Config().MaxBatchMsgs
	r["aggregate.append_ns"] = timeRung(n/full*full, func(n int) {
		for i := 0; i < n; i++ {
			agg.Append(1, 0, item, msgBytes)
		}
	})
	r["aggregate.single_flush_ns"] = timeRung(n, func(n int) {
		for i := 0; i < n; i++ {
			agg.Append(1, 0, item, msgBytes)
			agg.FlushAll(aggregate.FlushIdle)
		}
	})
	agg.Close()

	plan := fft.MustPlan(fftN)
	line := make([]complex128, fftN)
	rng := rand.New(rand.NewSource(seed))
	for i := range line {
		line[i] = complex(rng.Float64(), rng.Float64())
	}
	oneLine := func(n int) {
		for i := 0; i < n; i++ {
			plan.Forward(line)
			plan.Inverse(line)
		}
	}
	r["fft.line16_ns"] = timeRung(n, oneLine) / 2
	r["fft.line16_allocs"] = allocsPer(1000, func() { oneLine(1) }) / 2
	grid := fftInput(seed)
	r["fft3d.serial_ns"] = timeRung(20, func(n int) {
		for i := 0; i < n; i++ {
			fft3d.SerialForward(grid)
			fft3d.SerialInverse(grid)
		}
	})

	deck := newMDDeck(seed)
	forces := md.NewForces(deck.sys.N())
	r["md.nonbonded_ns"] = timeRung(5, func(n int) {
		for i := 0; i < n; i++ {
			forces.Reset()
			md.ComputeNonbonded(deck.sys, deck.nonbonded, forces)
		}
	})
	recip, err := pme.NewRecip(pme.Config{Grid: deck.pme.Grid, Order: deck.pme.Order, Beta: deck.pme.Beta})
	if err != nil {
		return nil, err
	}
	r["pme.recip_ns"] = timeRung(5, func(n int) {
		for i := 0; i < n; i++ {
			forces.Reset()
			rungSink = recip.Compute(deck.sys, forces)
		}
	})
	field, err := pme.NewForceField(deck.nonbonded, pme.Config{Grid: deck.pme.Grid, Order: deck.pme.Order, Beta: deck.pme.Beta}, deck.pme.Every)
	if err != nil {
		return nil, err
	}
	serial, integ := cloneSystem(deck.sys), md.NewIntegrator(deck.dt, field)
	r["mdsim.serial_step_ns"] = timeRung(2*deck.pme.Every, func(n int) {
		for i := 0; i < n; i++ {
			integ.Step(serial)
		}
	})
	var buildErr error
	r["mdsim.build_ms"] = timeRung(1, func(int) {
		rungSink, buildErr = deck.newSim(1)
	}) / 1e6
	if buildErr != nil {
		return nil, buildErr
	}

	if err := closedLoopRungs(r, seed, scale); err != nil {
		return nil, err
	}
	return r, nil
}

// allocsPer is testing.AllocsPerRun without importing testing into the
// benchmark binary: mean heap objects allocated per call of fn.
func allocsPer(runs int, fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs)
}

// rungWakeup bounces a wakeup between two goroutines, each parked in Wait
// on its own unit until the other signals it; ns per signal→wake.
func rungWakeup() float64 {
	const n = 2000
	a, b := wakeup.NewUnit(), wakeup.NewUnit()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b.Wait() {
			a.Signal()
		}
	}()
	ns := timeRung(n, func(n int) {
		for i := 0; i < n; i++ {
			b.Signal()
			a.Wait()
		}
	}) / 2
	b.Close()
	wg.Wait()
	return ns
}

// rungPAMI times SendImmediate on node 0 → dispatch callback on node 1 →
// (armed only) the ack back on node 0, both contexts advanced by the
// calling goroutine. An unreliable transport delivers through its
// delay-line goroutine; with inline set, the caller delivers due packets
// itself (Transport.Advance) instead of yielding to that goroutine, which
// takes the goroutine hand-off — most of the armed rung, and all of its
// noise — out of the timing.
func rungPAMI(tr transport.Transport, n int, inline bool) float64 {
	client := pami.NewClient(tr, 1)
	src, dst := client.Node(0).Context(0), client.Node(1).Context(0)
	got := 0
	dst.RegisterDispatch(1, func(int, any, int) { got++ })
	wait := func() {
		if inline {
			tr.Advance()
		} else {
			runtime.Gosched()
		}
	}
	ns := timeRung(n, func(n int) {
		for i := 0; i < n; i++ {
			want := got + 1
			_ = src.SendImmediate(1, 0, 1, nil, msgBytes)
			for got < want {
				if dst.Advance() == 0 {
					wait()
				}
			}
			// Armed: take the ack before the next send, so the sender's
			// retransmit timer never has anything outstanding.
			for client.Node(1).ReliabilityStats().AcksSent > client.Node(0).ReliabilityStats().AcksReceived {
				if src.Advance() == 0 {
					wait()
				}
			}
		}
	})
	client.Node(0).Shutdown()
	client.Node(1).Shutdown()
	return ns
}

// rungPAMIArmed is rungPAMI over the zero-fault unreliable transport
// (sequence numbers, ack, retransmit timer), with the wire CRC on or off.
func rungPAMIArmed(seed int64, crc, inline bool) (float64, error) {
	tr, err := armedTransport(seed, 2, 1)
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	// CRCEnabled is read once, at client construction; rungs run one at a
	// time on the main goroutine, so flipping it around the constructor
	// races with nothing.
	saved := pami.CRCEnabled
	pami.CRCEnabled = crc
	ns := rungPAMI(tr, 2000, inline)
	pami.CRCEnabled = saved
	return ns, nil
}

// rungPhases are the phases of a closed-loop rung.
func rungPhases(warm, round time.Duration, scale float64) phases {
	return phases{warm: time.Duration(float64(warm) * scale), round: time.Duration(float64(round) * scale), rounds: 1}
}

// closedLoopRungs runs the rungs that need a live 2-PE machine.
func closedLoopRungs(r map[string]float64, seed int64, scale float64) error {
	short := runCfg{seed: seed, ph: rungPhases(300*time.Millisecond, 500*time.Millisecond, scale)}
	p50 := func(o *outcome, err error) (float64, error) {
		if err != nil {
			return 0, err
		}
		if o.failed() != 0 {
			return 0, fmt.Errorf("rung failed its checks: %v", o.fails)
		}
		return median(o.m.samples), nil
	}
	var err error
	// Fig 4: the bare inter-node hop, the denominator of pami.armed_tax_ratio.
	long := runCfg{seed: seed, ph: rungPhases(500*time.Millisecond, 1500*time.Millisecond, scale)}
	if r["converse.hop_inter_bare_ns"], err = p50(runPingPong(long, intraChunk, false, plain(shapeInter, false, seed))); err != nil {
		return err
	}
	bare, err := p50(runPingPong(short, intraChunk, false, plain(shapeIntra, false, seed)))
	if err != nil {
		return err
	}
	r["converse.hop_intra_bare_ns"] = bare

	charmHop, err := p50(runCharmPingPong(short))
	if err != nil {
		return err
	}
	r["charm.hop_overhead_ns"] = charmHop - bare

	// Armed-but-idle taxes: the same intra-node ping-pong with a subsystem
	// attached that has nothing to do, over the bare rung of this same run.
	var moves func() int64
	lbHop, err := p50(runPingPong(short, intraChunk, false, func() (*built, error) {
		rt, err := charm.NewRuntime(shapeIntra)
		if err != nil {
			return nil, err
		}
		mgr := lb.Attach(rt, lb.Config{Diffusion: true, Period: 500 * time.Microsecond})
		mgr.Manage(rt.NewArray("lbidle", 2, func(int) charm.Element { return &struct{}{} }), -1)
		moves = mgr.Moves
		return &built{m: rt.Machine(), run: rt.Run, close: func() {}}, nil
	}))
	if err != nil {
		return err
	}
	if n := moves(); n != 0 {
		return fmt.Errorf("idle load balancer migrated %d elements", n)
	}
	r["lb.idle_tax_ratio"] = lbHop / bare
	ftHop, err := p50(runPingPong(short, intraChunk, false, func() (*built, error) {
		rt, err := charm.NewRuntime(shapeIntra)
		if err != nil {
			return nil, err
		}
		ft.New(rt, ft.Config{})
		return &built{m: rt.Machine(), run: rt.Run, close: func() {}}, nil
	}))
	if err != nil {
		return err
	}
	r["ft.idle_tax_ratio"] = ftHop / bare

	if r["charm.reduce_bcast_ns_per_elem"], err = p50(runEmptySteps(short)); err != nil {
		return err
	}
	if r["m2m.burst_ns_per_msg"], err = p50(runM2MBurst(short)); err != nil {
		return err
	}

	// Cold start: NewMachine → first reply → Shutdown, nothing warmed.
	const cycles = 25
	n := cycles
	if scale < 1 {
		n = 3
	}
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		m, err := converse.NewMachine(shapeIntra)
		if err != nil {
			return err
		}
		var h int
		h = m.RegisterHandler(func(pe *converse.PE, _ *converse.Message) {
			if pe.Id() == 0 {
				us[i] = float64(time.Since(t0)) / 1e3
				m.Shutdown()
				return
			}
			reply := pe.NewMessage()
			reply.Handler = h
			_ = pe.Send(0, reply)
		})
		m.Run(func(pe *converse.PE) {
			if pe.Id() == 0 {
				k := pe.NewMessage()
				k.Handler = h
				_ = pe.Send(1, k)
			}
		})
	}
	r["converse.build_first_reply_us"] = median(us)
	return nil
}

// runCharmPingPong is the intra-node ping-pong through a 2-element chare
// array (element i on PE i): the converse hop plus charm's send and entry
// dispatch.
func runCharmPingPong(c runCfg) (*outcome, error) {
	o := &outcome{m: newMeter(c.ph, time.Now())}
	rt, err := charm.NewRuntime(shapeIntra)
	if err != nil {
		return nil, err
	}
	arr := rt.NewArray("pingpong", 2, func(int) charm.Element { return &struct{}{} })
	hops := 0
	var entry int
	entry = arr.Entry(func(pe *converse.PE, _ charm.Element, idx int, _ any) {
		if idx == 0 {
			hops += 2
			if hops >= intraChunk {
				hops = 0
				if !o.m.chunk(intraChunk) {
					rt.Shutdown()
					return
				}
			}
		}
		if err := arr.Send(pe, 1-idx, entry, nil, msgBytes); err != nil {
			o.fail("send", 1, "array send: %v", err)
		}
	})
	rt.Run(func(pe *converse.PE) {
		o.m.begin()
		if err := arr.Send(pe, 1, entry, nil, msgBytes); err != nil {
			o.fail("send", 1, "kick: %v", err)
		}
	})
	return o, nil
}

// runEmptySteps drives the stencil's array with steps that do nothing but
// contribute: broadcast + reduction cost per element, without halos.
func runEmptySteps(c runCfg) (*outcome, error) {
	o := &outcome{m: newMeter(c.ph, time.Now())}
	rt, err := charm.NewRuntime(shapeInter)
	if err != nil {
		return nil, err
	}
	arr := rt.NewArray("empty", stencilElems, func(int) charm.Element { return new(uint64) })
	one := []float64{1}
	var eStep int
	var target charm.ReductionTarget
	eStep = arr.Entry(func(pe *converse.PE, el charm.Element, _ int, _ any) {
		seq := el.(*uint64)
		*seq++
		if err := arr.Contribute(pe, *seq, one, charm.ReduceSum, target); err != nil {
			o.fail("send", 1, "contribute: %v", err)
		}
	})
	target = func(pe *converse.PE, sum []float64) {
		if sum[0] != stencilElems {
			o.fail("sum", stencilElems, "empty step reduced to %g", sum[0])
		}
		if !o.m.chunk(stencilElems) {
			rt.Shutdown()
			return
		}
		if err := arr.Broadcast(pe, eStep, nil, 8); err != nil {
			o.fail("send", 1, "broadcast: %v", err)
		}
	}
	rt.Run(func(pe *converse.PE) {
		o.m.begin()
		if err := arr.Broadcast(pe, eStep, nil, 8); err != nil {
			o.fail("send", 1, "broadcast: %v", err)
		}
	})
	return o, nil
}

// runM2MBurst bounces a 16-slot × 64 B many-to-many burst between the two
// PEs: PE 0 starts, PE 1's completion callback starts the burst back, PE
// 0's completion closes the chunk. One op is one burst message.
func runM2MBurst(c runCfg) (*outcome, error) {
	const slots = 16
	o := &outcome{m: newMeter(c.ph, time.Now())}
	m, err := converse.NewMachine(shapeInter)
	if err != nil {
		return nil, err
	}
	h := m2m.NewManager(m).NewHandle()
	payload := any(make([]byte, haloBytes))
	for src := 0; src < 2; src++ {
		for s := 0; s < slots; s++ {
			if err := h.RegisterSend(src, 1-src, s, haloBytes, func() any { return payload }); err != nil {
				return nil, err
			}
		}
	}
	if err := h.RegisterRecv(1, slots, nil, func(pe *converse.PE) { h.Start(pe) }); err != nil {
		return nil, err
	}
	if err := h.RegisterRecv(0, slots, nil, func(pe *converse.PE) {
		if !o.m.chunk(2 * slots) {
			m.Shutdown()
			return
		}
		h.Start(pe)
	}); err != nil {
		return nil, err
	}
	m.Run(func(pe *converse.PE) {
		if pe.Id() == 0 {
			o.m.begin()
			h.Start(pe)
		}
	})
	return o, nil
}
