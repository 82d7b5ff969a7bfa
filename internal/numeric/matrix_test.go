package numeric

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 5)
	m.Set(1, 1, -2)
	if m.At(0, 0) != 1 || m.At(0, 2) != 5 || m.At(1, 1) != -2 {
		t.Fatal("At/Set round trip failed")
	}
	row := m.Row(1)
	if len(row) != 3 || row[1] != -2 {
		t.Fatalf("Row(1) = %v", row)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone must not share storage")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", y)
	}
	yt := m.TMulVec([]float64{1, 1})
	if yt[0] != 4 || yt[1] != 6 {
		t.Errorf("TMulVec = %v, want [4 6]", yt)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x − y = 1  →  x = 2, y = 1
	m := NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, -1)
	x, err := m.Solve([]float64{5, 1})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("Solve = %v, want [2 1]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	m := NewMatrix(2, 2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	x, err := m.Solve([]float64{3, 4})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(x[0]-4) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("Solve = %v, want [4 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := m.Solve([]float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("singular system: err = %v, want ErrSingular", err)
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		m := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
			// Diagonal dominance keeps the system comfortably regular.
			m.Set(i, i, m.At(i, i)+float64(n)+1)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := m.MulVec(want)
		got, err := m.Solve(b)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSolveDimensionErrors(t *testing.T) {
	m := NewMatrix(2, 3)
	if _, err := m.Solve([]float64{1, 2}); err == nil {
		t.Error("non-square Solve: want error")
	}
	sq := NewMatrix(2, 2)
	if _, err := sq.Solve([]float64{1}); err == nil {
		t.Error("wrong b length: want error")
	}
}

func TestDotNorm(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %g, want 5", got)
	}
}

func TestMulVecPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MulVec with wrong length should panic")
		}
	}()
	NewMatrix(2, 2).MulVec([]float64{1})
}
