package ecg

import "fmt"

// ADC models the analog-to-digital conversion stage of the sensing chain.
// The case study fixes a 12-bit converter (L_ADC = 12 bits, §4.3); full
// scale is expressed in millivolts to match the generator output.
type ADC struct {
	Bits int     // resolution; the Shimmer front end uses 12
	Min  float64 // full-scale minimum, millivolts
	Max  float64 // full-scale maximum, millivolts
}

// DefaultADC is the converter used by the case study: 12 bits over a
// ±2.5 mV ECG front-end range.
func DefaultADC() ADC { return ADC{Bits: 12, Min: -2.5, Max: 2.5} }

// Levels returns the number of quantization levels (2^Bits).
func (a ADC) Levels() int { return 1 << a.Bits }

// SampleBytes returns the storage size of one sample in bytes, possibly
// fractional (12 bits = 1.5 bytes). This is the L_adc factor in the input
// stream φ_in = f_s · L_adc of §3.3.
func (a ADC) SampleBytes() float64 { return float64(a.Bits) / 8 }

// Quantize converts analog samples (millivolts) to integer codes in
// [0, Levels). Values outside full scale saturate.
func (a ADC) Quantize(samples []float64) []int {
	codes := make([]int, len(samples))
	span := a.Max - a.Min
	levels := float64(a.Levels())
	for i, s := range samples {
		c := int((s - a.Min) / span * levels)
		if c < 0 {
			c = 0
		}
		if c >= a.Levels() {
			c = a.Levels() - 1
		}
		codes[i] = c
	}
	return codes
}

// Dequantize converts integer codes back to millivolts (mid-rise
// reconstruction at the code centers).
func (a ADC) Dequantize(codes []int) []float64 {
	out := make([]float64, len(codes))
	span := a.Max - a.Min
	levels := float64(a.Levels())
	for i, c := range codes {
		out[i] = a.Min + (float64(c)+0.5)/levels*span
	}
	return out
}

// Digitize is the common Quantize→Dequantize round trip: it returns the
// signal as the digital system sees it, with quantization error applied.
func (a ADC) Digitize(samples []float64) []float64 {
	return a.Dequantize(a.Quantize(samples))
}

// Validate reports whether the ADC parameters are usable.
func (a ADC) Validate() error {
	if a.Bits < 1 || a.Bits > 24 {
		return fmt.Errorf("ecg: ADC bits %d out of range [1,24]", a.Bits)
	}
	if a.Max <= a.Min {
		return fmt.Errorf("ecg: ADC full scale [%g,%g] is empty", a.Min, a.Max)
	}
	return nil
}

// InputRate returns φ_in in bytes per second for a sampling frequency fs:
// φ_in = f_s · L_adc (§3.3). With the case-study defaults, 250 Hz × 1.5 B
// = 375 B/s, matching the paper.
func (a ADC) InputRate(fs float64) float64 { return fs * a.SampleBytes() }
