package stats

import (
	"fmt"
	"math"
)

// QuadSurface is a two-dimensional quadratic surface
//
//	f(u, v) = C0 + Cu*u + Cv*v + Cuu*u^2 + Cvv*v^2 + Cuv*u*v
//
// fitted by FitQuadSurface. It is the "2-D curve fit" used by the paper's
// Monte-Carlo search (Algorithm 3, line 11) to denoise the KL-divergence
// grid before taking the argmin.
type QuadSurface struct {
	C0, Cu, Cv, Cuu, Cvv, Cuv float64
}

// Eval evaluates the surface at (u, v).
func (s QuadSurface) Eval(u, v float64) float64 {
	return s.C0 + s.Cu*u + s.Cv*v + s.Cuu*u*u + s.Cvv*v*v + s.Cuv*u*v
}

// FitQuadSurface fits a quadratic surface to points (us[i], vs[i]) ->
// zs[i] by least squares. At least 6 points are required.
func FitQuadSurface(us, vs, zs []float64) (QuadSurface, error) {
	if len(us) != len(vs) || len(us) != len(zs) {
		return QuadSurface{}, fmt.Errorf("stats: surface fit length mismatch: %d/%d/%d", len(us), len(vs), len(zs))
	}
	if len(us) < 6 {
		return QuadSurface{}, fmt.Errorf("stats: surface fit needs at least 6 points, got %d", len(us))
	}
	design := make([][]float64, len(us))
	for i := range us {
		u, v := us[i], vs[i]
		design[i] = []float64{1, u, v, u * u, v * v, u * v}
	}
	coef, err := LeastSquares(design, zs)
	if err != nil {
		return QuadSurface{}, err
	}
	return QuadSurface{
		C0: coef[0], Cu: coef[1], Cv: coef[2],
		Cuu: coef[3], Cvv: coef[4], Cuv: coef[5],
	}, nil
}

// MinOnGrid evaluates the surface on a (steps+1) x (steps+1) lattice over
// the box [uMin,uMax] x [vMin,vMax] and returns the lattice point with the
// smallest value. Evaluating on a lattice (rather than solving the
// stationary-point system) keeps the argmin inside the search box even when
// the fitted surface is a saddle or opens downward, matching the paper's
// constrained minimisation over [c, N_Chao92] x [-0.4, 0.4].
func (s QuadSurface) MinOnGrid(uMin, uMax, vMin, vMax float64, steps int) (u, v, z float64) {
	if steps < 1 {
		steps = 1
	}
	if uMax < uMin {
		uMin, uMax = uMax, uMin
	}
	if vMax < vMin {
		vMin, vMax = vMax, vMin
	}
	bestZ := math.Inf(1)
	bestU, bestV := uMin, vMin
	for i := 0; i <= steps; i++ {
		uu := uMin + (uMax-uMin)*float64(i)/float64(steps)
		for j := 0; j <= steps; j++ {
			vv := vMin + (vMax-vMin)*float64(j)/float64(steps)
			zz := s.Eval(uu, vv)
			if zz < bestZ {
				bestZ, bestU, bestV = zz, uu, vv
			}
		}
	}
	return bestU, bestV, bestZ
}
