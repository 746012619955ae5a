// Package fft3d implements the 3D fast Fourier transform used by the
// paper's FFT benchmark (§IV-A, Table I) and by PME: a 2D pencil
// decomposition over the Charm++ runtime, with transposes exchanged either
// as point-to-point Charm++ messages or through the CmiDirectManytomany
// interface, plus a serial reference transform.
package fft3d

import (
	"fmt"

	"blueq/internal/fft"
)

// Grid describes a 3D complex grid of extents NX×NY×NZ, stored row-major
// with z fastest: index (x,y,z) ↦ (x*NY+y)*NZ+z.
type Grid struct {
	NX, NY, NZ int
	Data       []complex128
}

// NewGrid allocates a zero grid.
func NewGrid(nx, ny, nz int) *Grid {
	return &Grid{NX: nx, NY: ny, NZ: nz, Data: make([]complex128, nx*ny*nz)}
}

// At returns the value at (x,y,z).
func (g *Grid) At(x, y, z int) complex128 { return g.Data[(x*g.NY+y)*g.NZ+z] }

// Set stores v at (x,y,z).
func (g *Grid) Set(x, y, z int, v complex128) { g.Data[(x*g.NY+y)*g.NZ+z] = v }

// Fill initializes every point from f.
func (g *Grid) Fill(f func(x, y, z int) complex128) {
	i := 0
	for x := 0; x < g.NX; x++ {
		for y := 0; y < g.NY; y++ {
			for z := 0; z < g.NZ; z++ {
				g.Data[i] = f(x, y, z)
				i++
			}
		}
	}
}

// Clone returns a deep copy.
func (g *Grid) Clone() *Grid {
	c := NewGrid(g.NX, g.NY, g.NZ)
	copy(c.Data, g.Data)
	return c
}

// SerialForward performs an in-place forward 3D FFT on the grid using
// serial 1D transforms along Z, then Y, then X.
func SerialForward(g *Grid) { serial3D(g, false) }

// SerialInverse performs the in-place scaled inverse 3D FFT.
func SerialInverse(g *Grid) { serial3D(g, true) }

func serial3D(g *Grid, inverse bool) {
	apply := (*fft.Plan).Forward
	if inverse {
		apply = (*fft.Plan).Inverse
	}
	nx, ny, nz := g.NX, g.NY, g.NZ
	planX, planY, planZ := fft.MustPlan(nx), fft.MustPlan(ny), fft.MustPlan(nz)
	// Z: contiguous pencils.
	for xy := 0; xy < nx*ny; xy++ {
		apply(planZ, g.Data[xy*nz:(xy+1)*nz])
	}
	// Y (stride NZ within each x slab), then X (stride NY·NZ): gather each
	// strided pencil into one line buffer, transform, scatter back.
	buf := make([]complex128, max(nx, ny))
	strided := func(plan *fft.Plan, base, stride int) {
		line := buf[:plan.Len()]
		for i := range line {
			line[i] = g.Data[base+i*stride]
		}
		apply(plan, line)
		for i, v := range line {
			g.Data[base+i*stride] = v
		}
	}
	for x := 0; x < nx; x++ {
		for z := 0; z < nz; z++ {
			strided(planY, x*ny*nz+z, nz)
		}
	}
	for yz := 0; yz < ny*nz; yz++ {
		strided(planX, yz, ny*nz)
	}
}

// ---------------------------------------------------------------------------
// Block decomposition helpers shared by the distributed engine.

// Span is a half-open index range [Lo, Hi).
type Span struct{ Lo, Hi int }

func (s Span) Len() int { return s.Hi - s.Lo }

// block splits extent n into p near-equal parts and returns part i.
func block(i, n, p int) Span {
	return Span{Lo: i * n / p, Hi: (i + 1) * n / p}
}

// procGrid picks a near-square PR×PC factorization of p (PR <= PC).
func procGrid(p int) (pr, pc int) {
	pr = 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	return pr, p / pr
}

func validate(nx, ny, nz, pes int) error {
	if nx < 1 || ny < 1 || nz < 1 {
		return fmt.Errorf("fft3d: invalid grid %dx%dx%d", nx, ny, nz)
	}
	if pes < 1 {
		return fmt.Errorf("fft3d: %d PEs", pes)
	}
	return nil
}
