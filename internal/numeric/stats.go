package numeric

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SampleStdDev returns the sample standard deviation (Bessel-corrected,
// divisor N−1) of xs. This is the dispersion term the paper uses in the
// network-level metric combinator (Eq. 8). It returns 0 for fewer than two
// samples.
func SampleStdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// MeanStdDev returns the mean and the Bessel-corrected sample standard
// deviation of xs in a single pass — the fused form of Mean + SampleStdDev
// that the Eq. 8 combinator runs on its hot path. The mean accumulates as a
// plain sum, so it is bit-identical to Mean; the dispersion uses Welford's
// update, whose rounding may differ from the two-pass SampleStdDev by a few
// ULPs (it is at least as stable). Fewer than two samples yield a zero
// standard deviation, and an empty slice a zero mean, matching the two-pass
// helpers.
func MeanStdDev(xs []float64) (mean, sd float64) {
	var a Moments
	for _, x := range xs {
		a = a.Add(x)
	}
	return a.MeanStdDev()
}

// Moments is MeanStdDev's single pass taken one value at a time, for a
// caller that produces the values itself: several Moments fed in one
// loop run their passes side by side. The zero value holds no values.
// Its methods take and return it by value, so a local Moments can live in
// registers.
type Moments struct {
	n          int
	sum, m, m2 float64
}

// Add returns a with the next value x taken in.
func (a Moments) Add(x float64) Moments {
	a.n++
	a.sum += x
	d := x - a.m
	a.m += d / float64(a.n)
	a.m2 += d * (x - a.m)
	return a
}

// MeanStdDev returns what MeanStdDev returns for the values added so far,
// in the order they were added.
func (a Moments) MeanStdDev() (mean, sd float64) {
	if a.n == 0 {
		return 0, 0
	}
	mean = a.sum / float64(a.n)
	if a.n < 2 {
		return mean, 0
	}
	m2 := a.m2
	if m2 < 0 {
		m2 = 0 // rounding can drive the accumulator epsilon-negative
	}
	return mean, math.Sqrt(m2 / float64(a.n-1))
}

// MinMax returns the smallest and largest elements of xs. It panics on an
// empty slice, which is always a programming error here.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("numeric: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// RelErr returns |got−want| / |want| as a percentage. When want is zero it
// returns 0 if got is also zero and +Inf otherwise; callers compare against
// reference values that are never zero in practice.
func RelErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want) * 100
}

// maxCount is 2^53, the largest count below which a float64 holds every
// integer, or int's maximum where that is smaller.
const maxCount = min(1<<53, math.MaxInt)

// CeilCount returns ⌈x⌉ as an int, saturated at maxCount (NaN included):
// a count too large to serve stays too large, where converting it
// straight to int would wrap around.
func CeilCount(x float64) int {
	if c := math.Ceil(x); c < maxCount {
		return int(c)
	}
	return maxCount
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n must be at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("numeric: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
