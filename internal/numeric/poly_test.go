package numeric

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPolyEval(t *testing.T) {
	p := Poly{1, 2, 3} // 1 + 2x + 3x²
	cases := []struct{ x, want float64 }{
		{0, 1},
		{1, 6},
		{2, 17},
		{-1, 2},
	}
	for _, c := range cases {
		if got := p.Eval(c.x); got != c.want {
			t.Errorf("Eval(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestPolyEvalEmpty(t *testing.T) {
	if got := (Poly{}).Eval(3); got != 0 {
		t.Errorf("empty poly eval = %g, want 0", got)
	}
}

func TestPolyFitExact(t *testing.T) {
	// Fitting points generated from a cubic with degree 3 must recover it.
	want := Poly{0.5, -2, 0, 1.25}
	xs := Linspace(-2, 2, 9)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = want.Eval(x)
	}
	got, err := PolyFit(xs, ys, 3)
	if err != nil {
		t.Fatalf("PolyFit: %v", err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("coef[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestPolyFitRecoversPolynomials is the property-based version: a random
// polynomial of degree ≤ 5 sampled at enough distinct points is recovered
// by a fit of matching degree.
func TestPolyFitRecoversPolynomials(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		deg := r.Intn(6)
		want := make(Poly, deg+1)
		for i := range want {
			want[i] = r.Float64()*4 - 2
		}
		xs := Linspace(0.1, 0.9, deg+4)
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = want.Eval(x)
		}
		got, err := PolyFit(xs, ys, deg)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(rng.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Error("mismatched lengths: want error")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 2); err == nil {
		t.Error("too few points: want error")
	}
	if _, err := PolyFit([]float64{1, 2, 3}, []float64{1, 2, 3}, -1); err == nil {
		t.Error("negative degree: want error")
	}
	// All xs identical → singular normal equations for degree ≥ 1.
	if _, err := PolyFit([]float64{2, 2, 2}, []float64{1, 2, 3}, 1); err == nil {
		t.Error("degenerate abscissa: want error")
	}
}

func TestPolyFitLeastSquaresResidual(t *testing.T) {
	// Noisy line: the least-squares fit should pass near the data.
	xs := Linspace(0, 1, 21)
	ys := make([]float64, len(xs))
	rng := rand.New(rand.NewSource(3))
	for i, x := range xs {
		ys[i] = 2 + 3*x + (rng.Float64()-0.5)*1e-2
	}
	p, err := PolyFit(xs, ys, 1)
	if err != nil {
		t.Fatalf("PolyFit: %v", err)
	}
	if math.Abs(p[0]-2) > 0.05 || math.Abs(p[1]-3) > 0.05 {
		t.Errorf("fit = %v, want near [2 3]", p)
	}
}

func TestPolyString(t *testing.T) {
	if got := (Poly{}).String(); got != "0" {
		t.Errorf("empty poly string = %q", got)
	}
	if got := (Poly{1, -2}).String(); got != "1 -2·x^1" {
		t.Errorf("poly string = %q", got)
	}
}
