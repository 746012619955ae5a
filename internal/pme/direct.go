package pme

import (
	"math"

	"blueq/internal/md"
)

// DirectRecip evaluates the reciprocal-space Ewald sum exactly (no grid,
// no splines) by direct summation over reciprocal vectors with |m_i| <=
// mmax per dimension. It is the reference PME is tested against:
//
//	E_rec = 1/(2πV) Σ_{m≠0} exp(-π²m̂²/β²)/m̂² |S(m)|²,
//	S(m)  = Σ_i qi exp(2πi m̂·r_i).
//
// Forces are accumulated into f.F; the self-energy term is added like
// Recip.Compute does, so the two are directly comparable.
func DirectRecip(s *md.System, beta float64, mmax int, f *md.Forces) float64 {
	V := s.Box.Volume()
	n := s.N()
	energy := 0.0
	for m1 := -mmax; m1 <= mmax; m1++ {
		for m2 := -mmax; m2 <= mmax; m2++ {
			for m3 := -mmax; m3 <= mmax; m3++ {
				if m1 == 0 && m2 == 0 && m3 == 0 {
					continue
				}
				fx := float64(m1) / s.Box.L[0]
				fy := float64(m2) / s.Box.L[1]
				fz := float64(m3) / s.Box.L[2]
				m2hat := fx*fx + fy*fy + fz*fz
				a := math.Exp(-math.Pi*math.Pi*m2hat/(beta*beta)) / m2hat
				// Structure factor.
				var sre, sim float64
				for i := 0; i < n; i++ {
					ang := 2 * math.Pi * (fx*s.Pos[i][0] + fy*s.Pos[i][1] + fz*s.Pos[i][2])
					sn, cs := math.Sincos(ang)
					sre += s.Charge[i] * cs
					sim += s.Charge[i] * sn
				}
				mag2 := sre*sre + sim*sim
				energy += a * mag2
				// F_i = -(dE/dr_i); dE involves 2·a·(S·conj(dS)).
				// F_i = (2a/(2πV))·qi·2π m̂·(sre·sin(ang_i) - sim·cos(ang_i))
				coef := a / (math.Pi * V) // folds the 1/2πV and factor 2
				for i := 0; i < n; i++ {
					ang := 2 * math.Pi * (fx*s.Pos[i][0] + fy*s.Pos[i][1] + fz*s.Pos[i][2])
					sn, cs := math.Sincos(ang)
					g := coef * s.Charge[i] * 2 * math.Pi * (sre*sn - sim*cs)
					f.F[i] = f.F[i].Add(md.Vec3{g * fx, g * fy, g * fz})
				}
			}
		}
	}
	energy /= 2 * math.Pi * V
	f.ElecEnergy += energy + SelfEnergy(beta, s.Charge)
	return energy
}

// DirectCoulomb computes the bare periodic Coulomb energy and forces by
// brute-force summation over periodic images within `images` shells, for
// small validation systems. Excluded pairs are skipped in the central cell
// only (matching the exclusion convention of the force field). It converges
// slowly; use only to sanity-check Ewald totals with generous tolerances.
func DirectCoulomb(s *md.System, images int, f *md.Forces) float64 {
	n := s.N()
	energy := 0.0
	for ix := -images; ix <= images; ix++ {
		for iy := -images; iy <= images; iy++ {
			for iz := -images; iz <= images; iz++ {
				shift := md.Vec3{
					float64(ix) * s.Box.L[0],
					float64(iy) * s.Box.L[1],
					float64(iz) * s.Box.L[2],
				}
				central := ix == 0 && iy == 0 && iz == 0
				if central {
					for i := 0; i < n; i++ {
						for j := i + 1; j < n; j++ {
							if s.IsExcluded(i, j) {
								continue
							}
							d := s.Pos[i].Sub(s.Pos[j])
							r := d.Norm()
							if r == 0 {
								continue
							}
							qq := s.Charge[i] * s.Charge[j]
							energy += qq / r
							fv := d.Scale(qq / (r * r * r))
							f.F[i] = f.F[i].Add(fv)
							f.F[j] = f.F[j].Sub(fv)
						}
					}
					continue
				}
				// Image cells: ordered sum with half-weight energy; the
				// force on i from charge j's image carries full weight and
				// is not mirrored onto j (j's own force comes from the
				// opposite shift's iteration).
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						d := s.Pos[i].Sub(s.Pos[j]).Add(shift)
						r := d.Norm()
						if r == 0 {
							continue
						}
						qq := s.Charge[i] * s.Charge[j]
						energy += 0.5 * qq / r
						f.F[i] = f.F[i].Add(d.Scale(qq / (r * r * r)))
					}
				}
			}
		}
	}
	return energy
}
