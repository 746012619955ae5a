package md

import "math"

// Torsion forces (the third bonded term of §IV-B: "bonded (bond, angle and
// torsion) ... interactions").

// Cross returns v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v[1]*w[2] - v[2]*w[1],
		v[2]*w[0] - v[0]*w[2],
		v[0]*w[1] - v[1]*w[0],
	}
}

// DihedralAngle returns the torsion angle φ ∈ (-π, π] of the four
// positions (minimum-image displacements).
func DihedralAngle(box Box, pi, pj, pk, pl Vec3) float64 {
	b1 := box.MinImage(pj.Sub(pi))
	b2 := box.MinImage(pk.Sub(pj))
	b3 := box.MinImage(pl.Sub(pk))
	n1 := b1.Cross(b2)
	n2 := b2.Cross(b3)
	m := n1.Cross(b2.Scale(1 / b2.Norm()))
	return math.Atan2(m.Dot(n2), n1.Dot(n2))
}

// DihedralForces evaluates one proper torsion E = K(1 + cos(nφ - φ0)) at
// the four given positions, returning the per-atom forces and the energy.
// ok is false when three atoms are collinear (torsion undefined). Like the
// other force-term kernels it takes positions rather than a System, so the
// parallel patch engine evaluates it against its own position cache.
func DihedralForces(box Box, pi, pj, pk, pl Vec3, d Dihedral) (fi, fj, fk, fl Vec3, energy float64, ok bool) {
	b1 := box.MinImage(pj.Sub(pi))
	b2 := box.MinImage(pk.Sub(pj))
	b3 := box.MinImage(pl.Sub(pk))
	n1 := b1.Cross(b2)
	n2 := b2.Cross(b3)
	n1sq, n2sq := n1.Norm2(), n2.Norm2()
	b2sq := b2.Norm2()
	b2len := math.Sqrt(b2sq)
	if n1sq < 1e-12 || n2sq < 1e-12 || b2len < 1e-12 {
		return
	}
	mvec := n1.Cross(b2.Scale(1 / b2len))
	phi := math.Atan2(mvec.Dot(n2), n1.Dot(n2))

	arg := float64(d.N)*phi - d.Phi0
	energy = d.Kd * (1 + math.Cos(arg))
	dEdphi := -d.Kd * float64(d.N) * math.Sin(arg)

	// Blondel-Karplus analytic gradient of the dihedral angle (exactly
	// translation- and rotation-invariant), with the sign convention of
	// DihedralAngle's atan2.
	dphiI := n1.Scale(b2len / n1sq)
	dphiL := n2.Scale(-b2len / n2sq)
	t := b1.Dot(b2) / b2sq
	u := b3.Dot(b2) / b2sq
	dphiJ := dphiI.Scale(-(1 + t)).Add(dphiL.Scale(u))
	dphiK := dphiI.Scale(t).Sub(dphiL.Scale(1 + u))

	fi = dphiI.Scale(-dEdphi)
	fj = dphiJ.Scale(-dEdphi)
	fk = dphiK.Scale(-dEdphi)
	fl = dphiL.Scale(-dEdphi)
	ok = true
	return
}

// ComputeDihedrals accumulates proper-torsion forces and energy for the
// whole system.
func ComputeDihedrals(s *System, out *Forces) {
	for _, d := range s.Dihedrals {
		fi, fj, fk, fl, e, ok := DihedralForces(s.Box, s.Pos[d.I], s.Pos[d.J], s.Pos[d.K], s.Pos[d.L], d)
		if !ok {
			continue
		}
		out.F[d.I] = out.F[d.I].Add(fi)
		out.F[d.J] = out.F[d.J].Add(fj)
		out.F[d.K] = out.F[d.K].Add(fk)
		out.F[d.L] = out.F[d.L].Add(fl)
		out.DihedralEnergy += e
	}
}
