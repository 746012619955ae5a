package fft3d

import (
	"fmt"
	"math"
	"sync/atomic"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/fft"
	"blueq/internal/m2m"
)

// Transport selects how transpose blocks travel between PEs (Table I's two
// columns).
type Transport int

const (
	// P2P sends each transpose block as an individual Charm++ message.
	P2P Transport = iota
	// M2M sends each transpose as a CmiDirectManytomany burst.
	M2M
)

func (tr Transport) String() string {
	if tr == M2M {
		return "m2m"
	}
	return "p2p"
}

// Config describes a distributed 3D FFT.
type Config struct {
	NX, NY, NZ int
	Transport  Transport
	// Input initializes the grid; nil means all zeros.
	Input func(x, y, z int) complex128
	// CaptureForward stores the forward transform for verification.
	CaptureForward bool
	// Filter, when non-nil, is applied to every spectral coefficient
	// between the forward and backward transforms: after an iteration the
	// grid holds the convolution of the input with the filter's inverse
	// transform. PME uses this for the Ewald influence function.
	Filter func(kx, ky, kz int, v complex128) complex128
}

// Engine is a pencil-decomposed 3D FFT over a Charm++ runtime. Each PE
// initially owns one set of pencils; an iteration is a forward plus a
// backward transform, the paper's Table I workload.
//
// The pencils live in a chare *array* with one element per PE and an
// identity placement, not a group: array elements can be re-homed through
// the location table, which is what lets the fault-tolerance layer restore
// a dead PE's pencils onto a survivor (internal/ft). Elements implement
// charm.Checkpointable (checkpoint.go).
//
// Create the engine after charm.NewRuntime and before Runtime.Run.
type Engine struct {
	rt  *charm.Runtime
	cfg Config
	arr *charm.Array

	pr, pc int

	planX, planY, planZ *fft.Plan // 1D kernels, resolved once

	// p2p entries
	eStart, eZY, eYX, eXY, eYZ, eDone int

	// m2m handles (Transport == M2M)
	hZY, hYX, hXY, hYZ *m2m.Handle

	onComplete      atomic.Value // func(pe *converse.PE, iter int)
	onLocalComplete atomic.Value // func(pe *converse.PE)
	doneCount       atomic.Int64
	iterations      atomic.Int64

	forward *Grid // captured forward transform (CaptureForward)
}

// transposeMsg is a p2p transpose block.
type transposeMsg struct {
	src  int
	data []complex128
}

// pencils is the per-PE element: its blocks in each phase and the phase
// state machine.
type pencils struct {
	eng  *Engine
	pe   int
	r, c int

	xb  Span // X block (rows of proc grid), all phases
	yb  Span // Y block in phase Z
	zb  Span // Z block in phases Y and X
	yb2 Span // Y block in phase X

	phaseZ []complex128 // (xi*|yb| + yi)*NZ + z
	phaseY []complex128 // (xi*|zb| + zi)*NY + y
	phaseX []complex128 // (yi*|zb| + zi)*NX + x
	orig   []complex128

	cnt  [4]int  // arrivals: 0=ZY 1=YX 2=XY 3=YZ
	done [4]bool // local sends complete for the stage feeding cnt[i]
}

// stage ids for cnt/done.
const (
	stZY = iota
	stYX
	stXY
	stYZ
)

// New declares the FFT engine on a runtime. mgr may be nil when
// cfg.Transport == P2P.
func New(rt *charm.Runtime, mgr *m2m.Manager, cfg Config) (*Engine, error) {
	if err := validate(cfg.NX, cfg.NY, cfg.NZ, rt.NumPEs()); err != nil {
		return nil, err
	}
	if cfg.Transport == M2M && mgr == nil {
		return nil, fmt.Errorf("fft3d: M2M transport requires an m2m.Manager")
	}
	e := &Engine{rt: rt, cfg: cfg,
		planX: fft.MustPlan(cfg.NX), planY: fft.MustPlan(cfg.NY), planZ: fft.MustPlan(cfg.NZ)}
	e.pr, e.pc = procGrid(rt.NumPEs())
	if cfg.CaptureForward {
		e.forward = NewGrid(cfg.NX, cfg.NY, cfg.NZ)
	}

	e.arr = rt.NewArrayPlaced("fft3d", rt.NumPEs(),
		func(idx int) charm.Element { return e.newPencils(idx) },
		func(idx int) int { return idx })
	e.eStart = e.arr.Entry(func(pe *converse.PE, el charm.Element, _ int, _ any) { el.(*pencils).start(pe) })
	e.eZY = e.arr.Entry(func(pe *converse.PE, el charm.Element, _ int, p any) {
		m := p.(*transposeMsg)
		el.(*pencils).recvZY(pe, m.src, m.data)
	})
	e.eYX = e.arr.Entry(func(pe *converse.PE, el charm.Element, _ int, p any) {
		m := p.(*transposeMsg)
		el.(*pencils).recvYX(pe, m.src, m.data)
	})
	e.eXY = e.arr.Entry(func(pe *converse.PE, el charm.Element, _ int, p any) {
		m := p.(*transposeMsg)
		el.(*pencils).recvXY(pe, m.src, m.data)
	})
	e.eYZ = e.arr.Entry(func(pe *converse.PE, el charm.Element, _ int, p any) {
		m := p.(*transposeMsg)
		el.(*pencils).recvYZ(pe, m.src, m.data)
	})
	e.eDone = e.arr.Entry(func(pe *converse.PE, _ charm.Element, _ int, _ any) { e.elementDone(pe) })

	if cfg.Transport == M2M {
		if err := e.buildM2M(mgr); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *Engine) newPencils(pe int) *pencils {
	p := &pencils{eng: e, pe: pe, r: pe / e.pc, c: pe % e.pc}
	p.xb = block(p.r, e.cfg.NX, e.pr)
	p.yb = block(p.c, e.cfg.NY, e.pc)
	p.zb = block(p.c, e.cfg.NZ, e.pc)
	p.yb2 = block(p.r, e.cfg.NY, e.pr)
	p.phaseZ = make([]complex128, p.xb.Len()*p.yb.Len()*e.cfg.NZ)
	p.phaseY = make([]complex128, p.xb.Len()*p.zb.Len()*e.cfg.NY)
	p.phaseX = make([]complex128, p.yb2.Len()*p.zb.Len()*e.cfg.NX)
	if e.cfg.Input != nil {
		i := 0
		for x := p.xb.Lo; x < p.xb.Hi; x++ {
			for y := p.yb.Lo; y < p.yb.Hi; y++ {
				for z := 0; z < e.cfg.NZ; z++ {
					p.phaseZ[i] = e.cfg.Input(x, y, z)
					i++
				}
			}
		}
	}
	p.orig = append([]complex128(nil), p.phaseZ...)
	return p
}

// SetOnComplete installs the callback fired on PE 0 after each iteration
// (forward+backward) completes on all PEs.
func (e *Engine) SetOnComplete(f func(pe *converse.PE, iter int)) { e.onComplete.Store(f) }

// Start launches one iteration; call from any PE (typically the mainchare),
// or from the completion callback to chain iterations.
func (e *Engine) Start(pe *converse.PE) error {
	return e.arr.Broadcast(pe, e.eStart, nil, 8)
}

// StartLocal begins an iteration for the calling PE's pencils only. Every
// PE must eventually start (via Start's broadcast or its own StartLocal)
// for the iteration to complete. The distributed PME layer uses this so
// each pencil owner starts as soon as its charge block is assembled.
// Must be called from an entry method executing on pe.
func (e *Engine) StartLocal(pe *converse.PE) {
	e.elem(pe.Id()).start(pe)
}

// SetOnLocalComplete installs a hook that runs on every PE at the end of
// each iteration, after the backward transform has repopulated that PE's
// Z-phase block (and before the global OnComplete fires on PE 0).
func (e *Engine) SetOnLocalComplete(f func(pe *converse.PE)) { e.onLocalComplete.Store(f) }

// ZSpans returns the Z-phase block of the given PE: x in xb, y in yb, all
// z. The PE owns the (x,y) pencil columns in that range.
func (e *Engine) ZSpans(pe int) (xb, yb Span) {
	r, c := pe/e.pc, pe%e.pc
	return block(r, e.cfg.NX, e.pr), block(c, e.cfg.NY, e.pc)
}

// ZData returns the Z-phase buffer of the given PE, indexed
// ((x-xb.Lo)*yb.Len() + (y-yb.Lo))*NZ + z. Before an iteration it is the
// engine input (external writers fill it); after an iteration it holds the
// round-tripped (optionally filtered) grid. Callers must respect the
// runtime's ownership discipline: write it only from entries on that PE,
// between iterations.
func (e *Engine) ZData(pe int) []complex128 { return e.elem(pe).phaseZ }

// ZOwnerOf returns the PE owning the pencil column (x, y) in the Z phase.
func (e *Engine) ZOwnerOf(x, y int) int {
	r := x * e.pr / e.cfg.NX
	for r > 0 && block(r, e.cfg.NX, e.pr).Lo > x {
		r--
	}
	for r < e.pr-1 && block(r, e.cfg.NX, e.pr).Hi <= x {
		r++
	}
	c := y * e.pc / e.cfg.NY
	for c > 0 && block(c, e.cfg.NY, e.pc).Lo > y {
		c--
	}
	for c < e.pc-1 && block(c, e.cfg.NY, e.pc).Hi <= y {
		c++
	}
	return e.peOf(r, c)
}

// Iterations returns the number of completed iterations.
func (e *Engine) Iterations() int64 { return e.iterations.Load() }

// Forward returns the captured forward transform (CaptureForward mode).
// Valid after at least one iteration completed.
func (e *Engine) Forward() *Grid { return e.forward }

// RoundTripError returns the max |after - before| over the whole grid;
// valid between iterations.
func (e *Engine) RoundTripError() float64 {
	worst := 0.0
	for peID := 0; peID < e.rt.NumPEs(); peID++ {
		p := e.arr.Element(peID).(*pencils)
		for i, v := range p.phaseZ {
			d := v - p.orig[i]
			if a := math.Hypot(real(d), imag(d)); a > worst {
				worst = a
			}
		}
	}
	return worst
}

func (e *Engine) elementDone(pe *converse.PE) {
	if int(e.doneCount.Add(1)) == e.rt.NumPEs() {
		e.doneCount.Store(0)
		iter := e.iterations.Add(1)
		if f := e.onComplete.Load(); f != nil {
			f.(func(pe *converse.PE, iter int))(pe, int(iter))
		}
	}
}

// peOf maps proc-grid coordinates to a PE id.
func (e *Engine) peOf(r, c int) int { return r*e.pc + c }

// ---------------------------------------------------------------------------
// m2m registration

func (e *Engine) buildM2M(mgr *m2m.Manager) error {
	e.hZY = mgr.NewHandle()
	e.hYX = mgr.NewHandle()
	e.hXY = mgr.NewHandle()
	e.hYZ = mgr.NewHandle()
	npes := e.rt.NumPEs()
	for src := 0; src < npes; src++ {
		src := src
		r, c := src/e.pc, src%e.pc
		for cp := 0; cp < e.pc; cp++ {
			cp := cp
			dst := e.peOf(r, cp)
			zb := block(cp, e.cfg.NZ, e.pc)
			ybDst := block(cp, e.cfg.NY, e.pc)
			bytesZY := 16 * (block(r, e.cfg.NX, e.pr).Len() * block(c, e.cfg.NY, e.pc).Len() * zb.Len())
			if err := e.hZY.RegisterSend(src, dst, src, bytesZY, func() any {
				return e.elem(src).extractZY(zb)
			}); err != nil {
				return err
			}
			bytesYZ := 16 * (block(r, e.cfg.NX, e.pr).Len() * ybDst.Len() * block(c, e.cfg.NZ, e.pc).Len())
			if err := e.hYZ.RegisterSend(src, dst, src, bytesYZ, func() any {
				return e.elem(src).extractYZ(ybDst)
			}); err != nil {
				return err
			}
		}
		for rp := 0; rp < e.pr; rp++ {
			rp := rp
			dst := e.peOf(rp, c)
			yb2 := block(rp, e.cfg.NY, e.pr)
			xbDst := block(rp, e.cfg.NX, e.pr)
			bytesYX := 16 * (block(r, e.cfg.NX, e.pr).Len() * yb2.Len() * block(c, e.cfg.NZ, e.pc).Len())
			if err := e.hYX.RegisterSend(src, dst, src, bytesYX, func() any {
				return e.elem(src).extractYX(yb2)
			}); err != nil {
				return err
			}
			bytesXY := 16 * (xbDst.Len() * block(r, e.cfg.NY, e.pr).Len() * block(c, e.cfg.NZ, e.pc).Len())
			if err := e.hXY.RegisterSend(src, dst, src, bytesXY, func() any {
				return e.elem(src).extractXY(xbDst)
			}); err != nil {
				return err
			}
		}
	}
	for dst := 0; dst < npes; dst++ {
		reg := func(h *m2m.Handle, expect int, recv func(p *pencils, pe *converse.PE, src int, data []complex128)) error {
			return h.RegisterRecv(dst, expect,
				func(pe *converse.PE, slot, srcPE int, data any) {
					recv(e.elem(pe.Id()), pe, srcPE, data.([]complex128))
				}, nil)
		}
		if err := reg(e.hZY, e.pc, func(p *pencils, pe *converse.PE, src int, d []complex128) { p.recvZY(pe, src, d) }); err != nil {
			return err
		}
		if err := reg(e.hYX, e.pr, func(p *pencils, pe *converse.PE, src int, d []complex128) { p.recvYX(pe, src, d) }); err != nil {
			return err
		}
		if err := reg(e.hXY, e.pr, func(p *pencils, pe *converse.PE, src int, d []complex128) { p.recvXY(pe, src, d) }); err != nil {
			return err
		}
		if err := reg(e.hYZ, e.pc, func(p *pencils, pe *converse.PE, src int, d []complex128) { p.recvYZ(pe, src, d) }); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) elem(idx int) *pencils { return e.arr.Element(idx).(*pencils) }

// Array exposes the pencils chare array so the fault-tolerance layer can
// protect it (checkpoint its elements and restore them after a failure).
func (e *Engine) Array() *charm.Array { return e.arr }

// PrepareRestart resets the engine's iteration bookkeeping to resume from
// a checkpoint taken after iteration iter completed. Call at recovery
// time, after every pencils element has been restored and before Start.
func (e *Engine) PrepareRestart(iter int64) {
	e.doneCount.Store(0)
	e.iterations.Store(iter)
}

// ---------------------------------------------------------------------------
// Block extraction (sender side)

// extractZY copies {x ∈ xb, y ∈ yb, z ∈ zbDst} from phaseZ, order (x,y,z).
func (p *pencils) extractZY(zbDst Span) []complex128 {
	nz := p.eng.cfg.NZ
	out := make([]complex128, 0, p.xb.Len()*p.yb.Len()*zbDst.Len())
	for xi := 0; xi < p.xb.Len(); xi++ {
		for yi := 0; yi < p.yb.Len(); yi++ {
			base := (xi*p.yb.Len() + yi) * nz
			out = append(out, p.phaseZ[base+zbDst.Lo:base+zbDst.Hi]...)
		}
	}
	return out
}

// extractYX copies {x ∈ xb, y ∈ yb2Dst, z ∈ zb} from phaseY, order (y,z,x).
func (p *pencils) extractYX(yb2Dst Span) []complex128 {
	ny := p.eng.cfg.NY
	out := make([]complex128, 0, yb2Dst.Len()*p.zb.Len()*p.xb.Len())
	for y := yb2Dst.Lo; y < yb2Dst.Hi; y++ {
		for zi := 0; zi < p.zb.Len(); zi++ {
			for xi := 0; xi < p.xb.Len(); xi++ {
				out = append(out, p.phaseY[(xi*p.zb.Len()+zi)*ny+y])
			}
		}
	}
	return out
}

// extractXY copies {x ∈ xbDst, y ∈ yb2, z ∈ zb} from phaseX, order (y,z,x):
// the exact inverse of extractYX.
func (p *pencils) extractXY(xbDst Span) []complex128 {
	nx := p.eng.cfg.NX
	out := make([]complex128, 0, p.yb2.Len()*p.zb.Len()*xbDst.Len())
	for yi := 0; yi < p.yb2.Len(); yi++ {
		for zi := 0; zi < p.zb.Len(); zi++ {
			base := (yi*p.zb.Len() + zi) * nx
			out = append(out, p.phaseX[base+xbDst.Lo:base+xbDst.Hi]...)
		}
	}
	return out
}

// extractYZ copies {x ∈ xb, y ∈ ybDst, z ∈ zb} from phaseY, order (x,y,z):
// the exact inverse of extractZY.
func (p *pencils) extractYZ(ybDst Span) []complex128 {
	ny := p.eng.cfg.NY
	out := make([]complex128, 0, p.xb.Len()*ybDst.Len()*p.zb.Len())
	for xi := 0; xi < p.xb.Len(); xi++ {
		for y := ybDst.Lo; y < ybDst.Hi; y++ {
			for zi := 0; zi < p.zb.Len(); zi++ {
				out = append(out, p.phaseY[(xi*p.zb.Len()+zi)*ny+y])
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// State machine

func (p *pencils) start(pe *converse.PE) {
	nz := p.eng.cfg.NZ
	for xy := 0; xy < p.xb.Len()*p.yb.Len(); xy++ {
		p.eng.planZ.Forward(p.phaseZ[xy*nz : (xy+1)*nz])
	}
	p.sendStage(pe, stZY)
}

// sendStage performs the transpose sends feeding stage st and marks local
// completion, possibly advancing the state machine.
func (p *pencils) sendStage(pe *converse.PE, st int) {
	e := p.eng
	if e.cfg.Transport == M2M {
		switch st {
		case stZY:
			e.hZY.Start(pe)
		case stYX:
			e.hYX.Start(pe)
		case stXY:
			e.hXY.Start(pe)
		case stYZ:
			e.hYZ.Start(pe)
		}
	} else {
		switch st {
		case stZY:
			for cp := 0; cp < e.pc; cp++ {
				zb := block(cp, e.cfg.NZ, e.pc)
				data := p.extractZY(zb)
				p.sendP2P(pe, e.peOf(p.r, cp), e.eZY, data)
			}
		case stYX:
			for rp := 0; rp < e.pr; rp++ {
				data := p.extractYX(block(rp, e.cfg.NY, e.pr))
				p.sendP2P(pe, e.peOf(rp, p.c), e.eYX, data)
			}
		case stXY:
			for rp := 0; rp < e.pr; rp++ {
				data := p.extractXY(block(rp, e.cfg.NX, e.pr))
				p.sendP2P(pe, e.peOf(rp, p.c), e.eXY, data)
			}
		case stYZ:
			for cp := 0; cp < e.pc; cp++ {
				data := p.extractYZ(block(cp, e.cfg.NY, e.pc))
				p.sendP2P(pe, e.peOf(p.r, cp), e.eYZ, data)
			}
		}
	}
	p.done[st] = true
	p.maybeAdvance(pe, st)
}

func (p *pencils) sendP2P(pe *converse.PE, dst, entry int, data []complex128) {
	if err := p.eng.arr.Send(pe, dst, entry, &transposeMsg{src: p.pe, data: data}, 16*len(data)); err != nil {
		panic(fmt.Sprintf("fft3d: transpose send failed: %v", err))
	}
}

func (p *pencils) expected(st int) int {
	if st == stZY || st == stYZ {
		return p.eng.pc
	}
	return p.eng.pr
}

// maybeAdvance fires the next stage when both the local sends of stage st
// and all its expected arrivals have completed.
func (p *pencils) maybeAdvance(pe *converse.PE, st int) {
	if !p.done[st] || p.cnt[st] != p.expected(st) {
		return
	}
	p.cnt[st] = 0
	p.done[st] = false
	e := p.eng
	switch st {
	case stZY: // phaseY populated: FFT along Y, then transpose Y->X
		ny := e.cfg.NY
		for xz := 0; xz < p.xb.Len()*p.zb.Len(); xz++ {
			e.planY.Forward(p.phaseY[xz*ny : (xz+1)*ny])
		}
		p.sendStage(pe, stYX)
	case stYX: // phaseX populated: FFT along X; forward done; start backward
		nx := e.cfg.NX
		for yz := 0; yz < p.yb2.Len()*p.zb.Len(); yz++ {
			e.planX.Forward(p.phaseX[yz*nx : (yz+1)*nx])
		}
		if f := e.cfg.Filter; f != nil {
			for yi := 0; yi < p.yb2.Len(); yi++ {
				ky := p.yb2.Lo + yi
				for zi := 0; zi < p.zb.Len(); zi++ {
					kz := p.zb.Lo + zi
					base := (yi*p.zb.Len() + zi) * nx
					for kx := 0; kx < nx; kx++ {
						p.phaseX[base+kx] = f(kx, ky, kz, p.phaseX[base+kx])
					}
				}
			}
		}
		if e.forward != nil {
			p.captureForward()
		}
		for yz := 0; yz < p.yb2.Len()*p.zb.Len(); yz++ {
			e.planX.Inverse(p.phaseX[yz*nx : (yz+1)*nx])
		}
		p.sendStage(pe, stXY)
	case stXY: // phaseY repopulated: inverse FFT along Y, transpose Y->Z
		ny := e.cfg.NY
		for xz := 0; xz < p.xb.Len()*p.zb.Len(); xz++ {
			e.planY.Inverse(p.phaseY[xz*ny : (xz+1)*ny])
		}
		p.sendStage(pe, stYZ)
	case stYZ: // phaseZ repopulated: inverse FFT along Z; iteration done
		nz := e.cfg.NZ
		for xy := 0; xy < p.xb.Len()*p.yb.Len(); xy++ {
			e.planZ.Inverse(p.phaseZ[xy*nz : (xy+1)*nz])
		}
		if f := e.onLocalComplete.Load(); f != nil {
			f.(func(pe *converse.PE))(pe)
		}
		if err := e.arr.Send(pe, 0, e.eDone, nil, 8); err != nil {
			panic(fmt.Sprintf("fft3d: done send failed: %v", err))
		}
	}
}

// captureForward writes this element's phaseX block into the shared
// verification grid (disjoint writes per element).
func (p *pencils) captureForward() {
	e := p.eng
	nx := e.cfg.NX
	for yi := 0; yi < p.yb2.Len(); yi++ {
		for zi := 0; zi < p.zb.Len(); zi++ {
			base := (yi*p.zb.Len() + zi) * nx
			for x := 0; x < nx; x++ {
				e.forward.Set(x, p.yb2.Lo+yi, p.zb.Lo+zi, p.phaseX[base+x])
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Receive paths (run on the destination PE)

func (p *pencils) recvZY(pe *converse.PE, src int, data []complex128) {
	e := p.eng
	cs := src % e.pc
	ybSrc := block(cs, e.cfg.NY, e.pc)
	ny := e.cfg.NY
	k := 0
	for xi := 0; xi < p.xb.Len(); xi++ {
		for y := ybSrc.Lo; y < ybSrc.Hi; y++ {
			for zi := 0; zi < p.zb.Len(); zi++ {
				p.phaseY[(xi*p.zb.Len()+zi)*ny+y] = data[k]
				k++
			}
		}
	}
	p.cnt[stZY]++
	p.maybeAdvance(pe, stZY)
}

func (p *pencils) recvYX(pe *converse.PE, src int, data []complex128) {
	e := p.eng
	rs := src / e.pc
	xbSrc := block(rs, e.cfg.NX, e.pr)
	nx := e.cfg.NX
	k := 0
	for yi := 0; yi < p.yb2.Len(); yi++ {
		for zi := 0; zi < p.zb.Len(); zi++ {
			base := (yi*p.zb.Len() + zi) * nx
			for x := xbSrc.Lo; x < xbSrc.Hi; x++ {
				p.phaseX[base+x] = data[k]
				k++
			}
		}
	}
	p.cnt[stYX]++
	p.maybeAdvance(pe, stYX)
}

func (p *pencils) recvXY(pe *converse.PE, src int, data []complex128) {
	e := p.eng
	rs := src / e.pc
	yb2Src := block(rs, e.cfg.NY, e.pr)
	ny := e.cfg.NY
	k := 0
	for y := yb2Src.Lo; y < yb2Src.Hi; y++ {
		for zi := 0; zi < p.zb.Len(); zi++ {
			for xi := 0; xi < p.xb.Len(); xi++ {
				p.phaseY[(xi*p.zb.Len()+zi)*ny+y] = data[k]
				k++
			}
		}
	}
	p.cnt[stXY]++
	p.maybeAdvance(pe, stXY)
}

func (p *pencils) recvYZ(pe *converse.PE, src int, data []complex128) {
	e := p.eng
	cs := src % e.pc
	zbSrc := block(cs, e.cfg.NZ, e.pc)
	nz := e.cfg.NZ
	k := 0
	for xi := 0; xi < p.xb.Len(); xi++ {
		for yi := 0; yi < p.yb.Len(); yi++ {
			base := (xi*p.yb.Len() + yi) * nz
			for z := zbSrc.Lo; z < zbSrc.Hi; z++ {
				p.phaseZ[base+z] = data[k]
				k++
			}
		}
	}
	p.cnt[stYZ]++
	p.maybeAdvance(pe, stYZ)
}
