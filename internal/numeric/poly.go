// Package numeric provides the small numerical toolkit the library needs:
// polynomial evaluation and least-squares fitting, dense linear system
// solving, and descriptive statistics.
//
// The paper estimates the application quality metric (PRD) with fifth-order
// polynomials fit to measured data (§4.3); PolyFit reproduces that
// calibration step. Everything here is dependency-free and deterministic.
package numeric

import (
	"errors"
	"fmt"
)

// Poly is a polynomial stored as coefficients in ascending-degree order:
// Poly{a0, a1, a2} represents a0 + a1·x + a2·x².
type Poly []float64

// Eval evaluates the polynomial at x using Horner's scheme.
func (p Poly) Eval(x float64) float64 {
	y := 0.0
	for i := len(p) - 1; i >= 0; i-- {
		y = y*x + p[i]
	}
	return y
}

// String renders the polynomial in human-readable ascending form.
func (p Poly) String() string {
	if len(p) == 0 {
		return "0"
	}
	s := ""
	for i, c := range p {
		if i == 0 {
			s = fmt.Sprintf("%.6g", c)
			continue
		}
		s += fmt.Sprintf(" %+.6g·x^%d", c, i)
	}
	return s
}

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("numeric: singular system")

// PolyFit computes the least-squares polynomial of the given degree through
// the points (xs[i], ys[i]). It solves the normal equations VᵀV a = Vᵀy
// with Gaussian elimination and partial pivoting, which is well-conditioned
// enough for the low degrees (≤ 8) and narrow abscissa ranges used here.
//
// It returns an error when fewer than degree+1 points are supplied or when
// the system is singular (for example, all xs identical).
func PolyFit(xs, ys []float64, degree int) (Poly, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("numeric: PolyFit: len(xs)=%d len(ys)=%d", len(xs), len(ys))
	}
	if degree < 0 {
		return nil, fmt.Errorf("numeric: PolyFit: negative degree %d", degree)
	}
	n := degree + 1
	if len(xs) < n {
		return nil, fmt.Errorf("numeric: PolyFit: need at least %d points for degree %d, got %d", n, degree, len(xs))
	}
	// Accumulate the normal equations directly: A[i][j] = Σ x^(i+j),
	// b[i] = Σ y·x^i. Powers up to 2·degree are required.
	pow := make([]float64, 2*degree+1)
	b := make([]float64, n)
	a := NewMatrix(n, n)
	for k := range xs {
		x, y := xs[k], ys[k]
		xp := 1.0
		for i := range pow {
			pow[i] += xp
			if i < n {
				b[i] += y * xp
			}
			xp *= x
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, pow[i+j])
		}
	}
	coef, err := a.Solve(b)
	if err != nil {
		return nil, err
	}
	return Poly(coef), nil
}
