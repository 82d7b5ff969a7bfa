package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %g, want 4", got)
	}
}

func TestSampleStdDev(t *testing.T) {
	if got := SampleStdDev([]float64{5}); got != 0 {
		t.Errorf("single sample stddev = %g, want 0", got)
	}
	// Known value: {2, 4, 4, 4, 5, 5, 7, 9} has sample stddev ≈ 2.138.
	got := SampleStdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.13809) > 1e-4 {
		t.Errorf("stddev = %g, want ≈2.138", got)
	}
}

func TestMeanStdDevMatchesTwoPass(t *testing.T) {
	// The fused helper must agree with the two-pass Mean + SampleStdDev
	// form: the mean bit-identically (it accumulates the same plain sum),
	// the dispersion within Welford-vs-two-pass rounding.
	cases := [][]float64{
		nil,
		{5},
		{2, 4, 4, 4, 5, 5, 7, 9},
		{1e-9, 2e-9, 3e-9},
		{1e6, 1e6 + 1, 1e6 + 2, 1e6 - 3},
		{-3.5, 0, 3.5},
	}
	for _, xs := range cases {
		mean, sd := MeanStdDev(xs)
		if want := Mean(xs); mean != want {
			t.Errorf("MeanStdDev(%v) mean = %g, want %g (bit-identical)", xs, mean, want)
		}
		want := SampleStdDev(xs)
		if diff := math.Abs(sd - want); diff > 1e-12*math.Max(1, want) {
			t.Errorf("MeanStdDev(%v) sd = %g, want %g (diff %g)", xs, sd, want, diff)
		}
	}
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		mean, sd := MeanStdDev(xs)
		if mean != Mean(xs) {
			return false
		}
		want := SampleStdDev(xs)
		return sd >= 0 && math.Abs(sd-want) <= 1e-9*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleStdDevNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological inputs
			}
		}
		return SampleStdDev(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%g, %g), want (-1, 7)", min, max)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinMax(empty) should panic")
		}
	}()
	MinMax(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %g", got)
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 25); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("interpolated percentile = %g, want 2.5", got)
	}
	// Percentile must not reorder its input.
	unsorted := []float64{9, 1, 5}
	Percentile(unsorted, 50)
	if unsorted[0] != 9 || unsorted[1] != 1 || unsorted[2] != 5 {
		t.Error("Percentile modified its input")
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(101, 100); math.Abs(got-1) > 1e-12 {
		t.Errorf("RelErr = %g, want 1", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Errorf("RelErr(0,0) = %g, want 0", got)
	}
	if got := RelErr(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelErr(1,0) = %g, want +Inf", got)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Errorf("Linspace[%d] = %g, want %g", i, xs[i], want[i])
		}
	}
	if xs[len(xs)-1] != 1 {
		t.Error("Linspace endpoint must be exact")
	}
	defer func() {
		if recover() == nil {
			t.Error("Linspace(n<2) should panic")
		}
	}()
	Linspace(0, 1, 1)
}
