package mdsim

import (
	"fmt"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/md"
	"blueq/internal/pme"
)

// atomRec is the migrating per-atom state. Static properties (charge,
// mass, LJ, bonds, exclusions) are read from the replicated System by id.
type atomRec struct {
	id     int32
	pos    md.Vec3
	vel    md.Vec3
	f      md.Vec3 // total force from the last evaluation
	recipF md.Vec3 // reciprocal-space (PME) force, reused between PME evals
}

// idPos is a coordinate broadcast entry.
type idPos struct {
	id  int32
	pos md.Vec3
}

// exchangeMsg carries migrants and coordinates from one patch to a
// neighbour for one force evaluation.
type exchangeMsg struct {
	srcPatch int
	eval     int
	migrants []atomRec
	coords   []idPos
}

// patch is one spatial cell of the decomposition: a chare array element.
type patch struct {
	sim        *Simulation
	idx        int
	ix, iy, iz int
	lo, hi     md.Vec3

	atoms     []atomRec
	neighbors []int // distinct neighbour patch indices (excl. self)

	// per-evaluation state
	curEval    int
	exchRecv   int
	pending    []*exchangeMsg // early messages for the next evaluation
	cache      []idPos        // neighbour coordinates for this evaluation
	ownSet     map[int32]int  // atom id -> index in atoms (this evaluation)
	newF       []md.Vec3      // forces for this evaluation (parallel to atoms)
	nbDone     bool
	pmePending bool
	primed     bool
}

// declarePatches builds the patch array and its entries.
func (s *Simulation) declarePatches() {
	n := s.NumPatches()
	s.patchArr = s.rt.NewArray("patches", n, func(idx int) charm.Element {
		return s.newPatch(idx)
	})
	s.ePatchStep = s.patchArr.Entry(func(pe *converse.PE, el charm.Element, _ int, payload any) {
		el.(*patch).beginEval(pe, payload.(*stepMsg))
	})
	s.eExchange = s.patchArr.Entry(func(pe *converse.PE, el charm.Element, _ int, payload any) {
		el.(*patch).recvExchange(pe, payload.(*exchangeMsg))
	})
	s.ePatchPME = s.patchArr.Entry(func(pe *converse.PE, el charm.Element, _ int, payload any) {
		el.(*patch).recipReady(pe, payload.([]md.Vec3))
	})
}

func (s *Simulation) patchOf(pos md.Vec3) int {
	p := s.cfg.System.Box.Wrap(pos)
	ix := int(p[0] / s.cfg.System.Box.L[0] * float64(s.px))
	iy := int(p[1] / s.cfg.System.Box.L[1] * float64(s.py))
	iz := int(p[2] / s.cfg.System.Box.L[2] * float64(s.pz))
	if ix >= s.px {
		ix = s.px - 1
	}
	if iy >= s.py {
		iy = s.py - 1
	}
	if iz >= s.pz {
		iz = s.pz - 1
	}
	return (ix*s.py+iy)*s.pz + iz
}

func (s *Simulation) newPatch(idx int) *patch {
	// curEval = -1 so exchanges for the prime evaluation (eval 0) that
	// arrive before this patch's own beginEval are buffered, not applied.
	p := &patch{sim: s, idx: idx, curEval: -1}
	p.ix = idx / (s.py * s.pz)
	p.iy = (idx / s.pz) % s.py
	p.iz = idx % s.pz
	box := s.cfg.System.Box
	p.lo = md.Vec3{
		float64(p.ix) * box.L[0] / float64(s.px),
		float64(p.iy) * box.L[1] / float64(s.py),
		float64(p.iz) * box.L[2] / float64(s.pz),
	}
	p.hi = md.Vec3{
		float64(p.ix+1) * box.L[0] / float64(s.px),
		float64(p.iy+1) * box.L[1] / float64(s.py),
		float64(p.iz+1) * box.L[2] / float64(s.pz),
	}
	// Distinct periodic neighbours.
	seen := map[int]bool{idx: true}
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				ni := ((p.ix+dx+s.px)%s.px*s.py+(p.iy+dy+s.py)%s.py)*s.pz + (p.iz+dz+s.pz)%s.pz
				if !seen[ni] {
					seen[ni] = true
					p.neighbors = append(p.neighbors, ni)
				}
			}
		}
	}
	// Initial atom assignment.
	for i, pos := range s.cfg.System.Pos {
		if s.patchOf(pos) == idx {
			p.atoms = append(p.atoms, atomRec{
				id:  int32(i),
				pos: s.cfg.System.Box.Wrap(pos),
				vel: s.cfg.System.Vel[i],
			})
		}
	}
	return p
}

// beginEval starts force evaluation msg.eval on this patch: integrate the
// first half-kick and drift (unless priming), select migrants, and send
// the exchange messages.
func (p *patch) beginEval(pe *converse.PE, msg *stepMsg) {
	s := p.sim
	p.curEval = msg.eval
	p.nbDone = false
	p.pmePending = s.isPMEEval(msg.eval)
	p.cache = p.cache[:0]

	var migrants map[int][]atomRec
	if !msg.prime {
		dt := s.cfg.DT
		kept := p.atoms[:0]
		for _, a := range p.atoms {
			m := s.cfg.System.Mass[a.id]
			a.vel = a.vel.Add(a.f.Scale(0.5 * dt / m))
			a.pos = s.cfg.System.Box.Wrap(a.pos.Add(a.vel.Scale(dt)))
			dst := s.patchOf(a.pos)
			if dst == p.idx {
				kept = append(kept, a)
				continue
			}
			if migrants == nil {
				migrants = make(map[int][]atomRec)
			}
			migrants[dst] = append(migrants[dst], a)
		}
		p.atoms = kept
	}

	// Coordinates sent include atoms migrating away: their old owner still
	// advertises them so all neighbours see every atom exactly once. The
	// old owner also keeps them in its own cache — the new owner does not
	// advertise back to us this evaluation.
	coords := make([]idPos, 0, len(p.atoms)+8)
	for _, a := range p.atoms {
		coords = append(coords, idPos{id: a.id, pos: a.pos})
	}
	for _, ms := range migrants {
		for _, a := range ms {
			coords = append(coords, idPos{id: a.id, pos: a.pos})
			p.cache = append(p.cache, idPos{id: a.id, pos: a.pos})
		}
	}

	for _, ni := range p.neighbors {
		m := &exchangeMsg{srcPatch: p.idx, eval: msg.eval, coords: coords}
		if migrants != nil {
			m.migrants = migrants[ni]
			delete(migrants, ni)
		}
		if err := s.patchArr.Send(pe, ni, s.eExchange, m, 8+24*len(coords)); err != nil {
			panic(fmt.Sprintf("mdsim: exchange send: %v", err))
		}
	}
	if len(migrants) > 0 {
		for dst := range migrants {
			panic(fmt.Sprintf("mdsim: atom moved from patch %d beyond neighbours to %d in one step", p.idx, dst))
		}
	}
	if len(p.neighbors) == 0 {
		// Single-patch runs have no exchange; compute immediately.
		p.maybeCompute(pe)
		return
	}
	// Apply exchanges that arrived before this patch entered the
	// evaluation.
	p.drainPending(pe)
}

// recvExchange handles a neighbour's migrants and coordinates. Messages
// for the next evaluation can arrive before this patch's own beginEval;
// they are buffered.
func (p *patch) recvExchange(pe *converse.PE, m *exchangeMsg) {
	if m.eval != p.curEval {
		p.pending = append(p.pending, m)
		return
	}
	p.applyExchange(pe, m)
}

func (p *patch) applyExchange(pe *converse.PE, m *exchangeMsg) {
	for _, a := range m.migrants {
		p.atoms = append(p.atoms, a)
		p.sim.migrations.Add(1)
	}
	p.cache = append(p.cache, m.coords...)
	p.exchRecv++
	if p.exchRecv == len(p.neighbors) {
		p.exchRecv = 0
		p.maybeCompute(pe)
	}
}

// maybeCompute runs once all exchanges for the evaluation have arrived.
func (p *patch) maybeCompute(pe *converse.PE) {
	s := p.sim
	// Index own atoms; drop cached entries that are now owned here (their
	// coordinates came both from the migration and the old owner's list).
	p.ownSet = make(map[int32]int, len(p.atoms))
	for i, a := range p.atoms {
		p.ownSet[a.id] = i
	}
	cache := p.cache[:0]
	for _, c := range p.cache {
		if _, mine := p.ownSet[c.id]; !mine {
			cache = append(cache, c)
		}
	}
	p.cache = cache

	p.computeForces(pe)
	p.nbDone = true
	if p.pmePending {
		s.coord(pe).stagePatch(pe, p)
		return
	}
	p.finishEval(pe)
}

// lookup returns the position of atom id from own atoms or the cache.
func (p *patch) lookup(id int32) (md.Vec3, bool) {
	if i, ok := p.ownSet[id]; ok {
		return p.atoms[i].pos, true
	}
	for _, c := range p.cache {
		if c.id == id {
			return c.pos, true
		}
	}
	return md.Vec3{}, false
}

// pos returns the position of atom id, which a term of this patch's atoms
// needs: every bonded or excluded partner lies in this patch or a
// neighbour, so a miss is a decomposition bug.
func (p *patch) pos(id int, term string, idx int32) md.Vec3 {
	v, ok := p.lookup(int32(id))
	if !ok {
		panic(fmt.Sprintf("mdsim: %s %d: atom %d not visible from patch %d eval %d; own=%d cache=%d",
			term, idx, id, p.idx, p.curEval, len(p.atoms), len(p.cache)))
	}
	return v
}

// addForce adds f to atom id's force if this patch owns the atom, and
// reports whether it does.
func (p *patch) addForce(id int, f md.Vec3) bool {
	i, own := p.ownSet[int32(id)]
	if own {
		p.newF[i] = p.newF[i].Add(f)
	}
	return own
}

// computeForces evaluates nonbonded (LJ + real-space Ewald), bonded and
// exclusion-correction forces for the atoms this patch owns, through the
// kernels of internal/md and internal/pme that the serial force field
// uses.
func (p *patch) computeForces(pe *converse.PE) {
	s := p.sim
	sys := s.cfg.System
	box := sys.Box
	if len(p.newF) < len(p.atoms) {
		p.newF = make([]md.Vec3, len(p.atoms))
	}
	p.newF = p.newF[:len(p.atoms)]
	for i := range p.newF {
		p.newF[i] = md.Vec3{}
	}
	var elj, eel, ebond, eangle, edihedral float64

	// pair adds one nonbonded pair; bOwn is b's index in p.atoms, or -1
	// for a neighbour's atom, whose own patch takes the reaction force.
	// The energy of a pair split across patches is counted by the patch
	// owning the lower id.
	pair := func(ai int, aID int32, apos md.Vec3, bID int32, bpos md.Vec3, bOwn int) {
		d := box.MinImage(apos.Sub(bpos))
		fr, lj, el, ok := s.pairs.Eval(sys, int(aID), int(bID), d)
		if !ok {
			return
		}
		if bOwn >= 0 || aID < bID {
			elj += lj
			eel += el
		}
		f := d.Scale(fr)
		p.newF[ai] = p.newF[ai].Add(f)
		if bOwn >= 0 {
			p.newF[bOwn] = p.newF[bOwn].Sub(f)
		}
	}

	for ai := range p.atoms {
		a := &p.atoms[ai]
		for bi := ai + 1; bi < len(p.atoms); bi++ {
			b := &p.atoms[bi]
			pair(ai, a.id, a.pos, b.id, b.pos, bi)
		}
		for _, c := range p.cache {
			pair(ai, a.id, a.pos, c.id, c.pos, -1)
		}
	}

	// Bonded terms: computed by every patch owning an atom of the term,
	// forces accumulated only for owned atoms; energies counted once by
	// the canonical owner (bond: I; angle and torsion: J).
	processedBonds := map[int32]bool{}
	processedAngles := map[int32]bool{}
	for _, a := range p.atoms {
		for _, bIdx := range s.bondsOf[a.id] {
			if processedBonds[bIdx] {
				continue
			}
			processedBonds[bIdx] = true
			b := sys.Bonds[bIdx]
			f, e, ok := md.BondForce(box, p.pos(b.I, "bond", bIdx), p.pos(b.J, "bond", bIdx), b)
			if !ok {
				continue
			}
			if p.addForce(b.I, f) {
				ebond += e
			}
			p.addForce(b.J, f.Scale(-1))
		}
		for _, aIdx := range s.anglesOf[a.id] {
			if processedAngles[aIdx] {
				continue
			}
			processedAngles[aIdx] = true
			an := sys.Angles[aIdx]
			fi, fj, fk, e, ok := md.AngleForces(box,
				p.pos(an.I, "angle", aIdx), p.pos(an.J, "angle", aIdx), p.pos(an.K, "angle", aIdx), an)
			if !ok {
				continue
			}
			p.addForce(an.I, fi)
			p.addForce(an.K, fk)
			if p.addForce(an.J, fj) {
				eangle += e
			}
		}
	}
	processedDihedrals := map[int32]bool{}
	for _, a := range p.atoms {
		for _, dIdx := range s.dihedralsOf[a.id] {
			if processedDihedrals[dIdx] {
				continue
			}
			processedDihedrals[dIdx] = true
			d := sys.Dihedrals[dIdx]
			fi, fj, fk, fl, e, ok := md.DihedralForces(box, p.pos(d.I, "dihedral", dIdx),
				p.pos(d.J, "dihedral", dIdx), p.pos(d.K, "dihedral", dIdx), p.pos(d.L, "dihedral", dIdx), d)
			if !ok {
				continue
			}
			p.addForce(d.I, fi)
			if p.addForce(d.J, fj) {
				edihedral += e
			}
			p.addForce(d.K, fk)
			p.addForce(d.L, fl)
		}
	}

	// Exclusion correction (PME runs only). Each excluded pair is visited
	// from both atoms' patches; its energy is counted from the lower id.
	if s.cfg.PME != nil {
		for ai := range p.atoms {
			a := &p.atoms[ai]
			for _, ex := range sys.Excl[a.id] {
				d := box.MinImage(a.pos.Sub(p.pos(int(ex), "exclusion of atom", a.id)))
				fr, e, ok := pme.ExclusionPair(sys, s.cfg.PME.Beta, int(a.id), int(ex), d)
				if !ok {
					continue
				}
				if a.id < ex {
					eel += e
				}
				p.newF[ai] = p.newF[ai].Add(d.Scale(fr))
			}
		}
	}

	s.emu.Lock()
	s.energies.LJEnergy += elj
	s.energies.ElecEnergy += eel
	s.energies.BondEnergy += ebond
	s.energies.AngleEnergy += eangle
	s.energies.DihedralEnergy += edihedral
	s.emu.Unlock()
}

// recipReady delivers the per-atom reciprocal forces (ordered like
// p.atoms at stage time).
func (p *patch) recipReady(pe *converse.PE, forces []md.Vec3) {
	for i := range p.atoms {
		p.atoms[i].recipF = forces[i]
	}
	p.finishEval(pe)
}

// finishEval closes the evaluation: add reciprocal forces, second
// half-kick, store forces, and report to the driver.
func (p *patch) finishEval(pe *converse.PE) {
	s := p.sim
	dt := s.cfg.DT
	for i := range p.atoms {
		a := &p.atoms[i]
		total := p.newF[i]
		if s.cfg.PME != nil {
			total = total.Add(a.recipF)
		}
		a.f = total
		if p.primed {
			m := s.cfg.System.Mass[a.id]
			a.vel = a.vel.Add(total.Scale(0.5 * dt / m))
		}
	}
	p.primed = true
	if err := s.coordGrp.Send(pe, 0, s.eStepDone, nil, 8); err != nil {
		panic(fmt.Sprintf("mdsim: done send: %v", err))
	}
}

// drainPending is called at the next beginEval implicitly: buffered
// messages whose eval now matches are applied.
func (p *patch) drainPending(pe *converse.PE) {
	if len(p.pending) == 0 {
		return
	}
	rest := p.pending[:0]
	msgs := p.pending
	p.pending = nil
	for _, m := range msgs {
		if m.eval == p.curEval {
			p.applyExchange(pe, m)
		} else {
			rest = append(rest, m)
		}
	}
	p.pending = append(p.pending, rest...)
}
