package ecg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestADCDefaults(t *testing.T) {
	a := DefaultADC()
	if err := a.Validate(); err != nil {
		t.Fatalf("default ADC invalid: %v", err)
	}
	if a.Levels() != 4096 {
		t.Errorf("Levels = %d, want 4096", a.Levels())
	}
	if a.SampleBytes() != 1.5 {
		t.Errorf("SampleBytes = %g, want 1.5", a.SampleBytes())
	}
	// The paper's φ_in: 250 Hz × 1.5 B = 375 B/s.
	if got := a.InputRate(250); got != 375 {
		t.Errorf("InputRate(250) = %g, want 375", got)
	}
}

func TestADCValidate(t *testing.T) {
	bad := []ADC{
		{Bits: 0, Min: 0, Max: 1},
		{Bits: 30, Min: 0, Max: 1},
		{Bits: 12, Min: 1, Max: 1},
		{Bits: 12, Min: 2, Max: 1},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: ADC %+v should be invalid", i, a)
		}
	}
}

func TestQuantizeSaturates(t *testing.T) {
	a := DefaultADC()
	codes := a.Quantize([]float64{-10, 10})
	if codes[0] != 0 {
		t.Errorf("underflow code = %d, want 0", codes[0])
	}
	if codes[1] != a.Levels()-1 {
		t.Errorf("overflow code = %d, want %d", codes[1], a.Levels()-1)
	}
}

func TestQuantizeRoundTripError(t *testing.T) {
	a := DefaultADC()
	step := (a.Max - a.Min) / float64(a.Levels())
	f := func(mv float64) bool {
		// Constrain to full scale minus one step of headroom.
		x := math.Mod(math.Abs(mv), a.Max-a.Min-2*step) + a.Min + step
		y := a.Digitize([]float64{x})[0]
		return math.Abs(y-x) <= step // mid-rise error ≤ one step
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDigitizePreservesECGShape(t *testing.T) {
	g, _ := NewGenerator(DefaultConfig())
	x := g.Generate(512)
	a := DefaultADC()
	y := a.Digitize(x)
	if len(y) != len(x) {
		t.Fatalf("Digitize changed length %d → %d", len(x), len(y))
	}
	var maxErr float64
	for i := range x {
		if e := math.Abs(y[i] - x[i]); e > maxErr {
			maxErr = e
		}
	}
	step := (a.Max - a.Min) / float64(a.Levels())
	if maxErr > step {
		t.Errorf("max quantization error %g exceeds one step %g", maxErr, step)
	}
}
