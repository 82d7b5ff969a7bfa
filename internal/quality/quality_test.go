package quality

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPRDPerfect(t *testing.T) {
	x := []float64{1, -2, 3}
	got, err := PRD(x, x)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("PRD(x,x) = %g, want 0", got)
	}
}

func TestPRDKnownValue(t *testing.T) {
	// x = (3,4): ‖x‖ = 5. y = (3,3): error = (0,1), ‖e‖ = 1 → PRD = 20 %.
	got, err := PRD([]float64{3, 4}, []float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-20) > 1e-12 {
		t.Errorf("PRD = %g, want 20", got)
	}
}

func TestPRDErrors(t *testing.T) {
	if _, err := PRD([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := PRD([]float64{0, 0}, []float64{0, 0}); err == nil {
		t.Error("zero-energy reference: want error")
	}
}

// PRD is non-negative, and zero exactly when signals coincide.
func TestPRDProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(64)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = x[i] + r.NormFloat64()*0.1
		}
		x[0] += 1 // guarantee nonzero energy
		prd, err := PRD(x, y)
		if err != nil || prd < 0 {
			return false
		}
		same, err := PRD(x, x)
		return err == nil && same == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
