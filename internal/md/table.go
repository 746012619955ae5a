package md

import "math"

// InterpolationTable is the NAMD force interpolation table: a function of
// r² stored as one cubic polynomial per bin. The paper's L1-pressure
// discussion (§IV-B.1) is about exactly this table.
type InterpolationTable struct {
	// Coefficients c0..c3 per bin, stored as structure-of-arrays.
	C0, C1, C2, C3 []float64
	RMin, Scale    float64 // bin = (r2 - RMin) * Scale
}

// NewInterpolationTable builds a table with n bins approximating f over
// [rmin, rmax) by per-bin cubic fits through four samples.
func NewInterpolationTable(f func(r2 float64) float64, rmin, rmax float64, n int) *InterpolationTable {
	t := &InterpolationTable{
		C0: make([]float64, n), C1: make([]float64, n),
		C2: make([]float64, n), C3: make([]float64, n),
		RMin:  rmin,
		Scale: float64(n) / (rmax - rmin),
	}
	h := (rmax - rmin) / float64(n)
	for b := 0; b < n; b++ {
		x0 := rmin + float64(b)*h
		// Sample at 4 Chebyshev-ish points in the bin and fit a cubic in the
		// local coordinate u = (r2-x0)/h ∈ [0,1).
		var xs, ys [4]float64
		for k := 0; k < 4; k++ {
			u := (float64(k) + 0.5) / 4
			xs[k] = u
			ys[k] = f(x0 + u*h)
		}
		c := fitCubic(xs, ys)
		t.C0[b], t.C1[b], t.C2[b], t.C3[b] = c[0], c[1], c[2], c[3]
	}
	return t
}

// fitCubic solves the 4x4 Vandermonde system for a cubic through the points.
func fitCubic(x, y [4]float64) [4]float64 {
	// Build Vandermonde matrix and solve by Gaussian elimination.
	var m [4][5]float64
	for i := 0; i < 4; i++ {
		m[i][0] = 1
		m[i][1] = x[i]
		m[i][2] = x[i] * x[i]
		m[i][3] = x[i] * x[i] * x[i]
		m[i][4] = y[i]
	}
	for col := 0; col < 4; col++ {
		p := col
		for r := col + 1; r < 4; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		m[col], m[p] = m[p], m[col]
		for r := 0; r < 4; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c < 5; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	var out [4]float64
	for i := 0; i < 4; i++ {
		out[i] = m[i][4] / m[i][i]
	}
	return out
}

// Lookup evaluates the table at r2.
func (t *InterpolationTable) Lookup(r2 float64) float64 {
	bins := len(t.C0)
	pos := (r2 - t.RMin) * t.Scale
	b := int(pos)
	if b < 0 {
		b = 0
	} else if b >= bins {
		b = bins - 1
	}
	h := 1 / t.Scale
	u := (r2 - (t.RMin + float64(b)*h)) / h
	return t.C0[b] + u*(t.C1[b]+u*(t.C2[b]+u*t.C3[b]))
}
