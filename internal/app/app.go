// Package app models the application layer of a WBSN node: the paper's
// function triple (§3.3) consisting of h (output stream), k (resource
// usage) and e (loss of quality).
//
// The two concrete applications are the case study's ECG compressors: the
// digital wavelet transform (DWT) and compressed sensing (CS). Their
// processing loads follow the paper's characterization — duty cycles
// k_DWT = 2265.6/f_µC and k_CS = 388.8/f_µC with f_µC in kHz, i.e. fixed
// cycle budgets of 2.2656 M and 0.3888 M cycles per second — and their
// quality functions are fifth-order polynomials in the compression ratio,
// fit against measured codec runs (see the casestudy package for the
// calibration that produces them).
package app

import (
	"fmt"

	"wsndse/internal/numeric"
	"wsndse/internal/units"
)

// Usage is the paper's resource-usage vector u = (Duty_app, M_app, γ_app):
// microcontroller duty cycle, resident memory, and memory access rate.
type Usage struct {
	Duty              float64 // fraction of µC time; > 1 means infeasible
	MemoryBytes       float64 // M_app
	AccessesPerSecond float64 // γ_app
}

// Application is the abstract application model. Implementations must be
// cheap to evaluate: the DSE calls these thousands of times per second.
type Application interface {
	// Name identifies the application (e.g. "dwt", "cs").
	Name() string
	// OutputRate is h(φ_in, χ_node): the produced stream in B/s given
	// the input stream in B/s.
	OutputRate(phiIn units.BytesPerSecond) units.BytesPerSecond
	// Usage is k(φ_in, χ_node): the resource usage at µC frequency f.
	Usage(phiIn units.BytesPerSecond, f units.Hertz) Usage
	// Quality is e(φ_in, χ_node): the loss-of-quality estimate; for the
	// ECG compressors this is the PRD in percent (lower is better).
	Quality(phiIn units.BytesPerSecond) float64
}

// Profile is the static characterization of one application kind, the
// constants a designer measures once per firmware implementation.
type Profile struct {
	Name string

	// CyclesPerSecond is the processing load. The paper's duty-cycle
	// characterization k(φ_in, χ_node) = C/f_µC corresponds to a fixed
	// cycle budget C: 2.2656e6 for the Shimmer DWT and 0.3888e6 for CS.
	CyclesPerSecond float64

	// MemoryBytes is the resident working set (buffers, coefficient
	// tables) and AccessesPerSecond the memory traffic γ_app.
	MemoryBytes       float64
	AccessesPerSecond float64

	// CRSensitivity is the relative duty-cycle variation across the CR
	// range — the "marginal dependency on CR" the paper observes and
	// then neglects in the model (§4.3). The analytical model ignores
	// it; the device-level simulator applies it, which contributes to
	// the model-vs-measurement estimation error.
	CRSensitivity float64
}

// DWTProfile is the characterization of the wavelet compressor firmware.
// The cycle budget matches the paper's k_DWT = 2265.6/f_µC[kHz]: heavy
// enough that the duty cycle exceeds 100 % at f_µC = 1 MHz.
func DWTProfile() Profile {
	return Profile{
		Name:              "dwt",
		CyclesPerSecond:   2.2656e6,
		MemoryBytes:       3 * 1024,
		AccessesPerSecond: 9.0e4,
		CRSensitivity:     0.04,
	}
}

// CSProfile is the characterization of the compressed-sensing encoder:
// only sparse additions per sample, hence the much lower budget
// k_CS = 388.8/f_µC[kHz].
func CSProfile() Profile {
	return Profile{
		Name:              "cs",
		CyclesPerSecond:   0.3888e6,
		MemoryBytes:       1536,
		AccessesPerSecond: 2.2e4,
		CRSensitivity:     0.02,
	}
}

// Compression is the concrete Application for the case-study codecs: a
// profile, the configured compression ratio (the CR knob of χ_node) and a
// calibrated quality polynomial P₅(CR).
type Compression struct {
	Profile     Profile
	CR          float64
	QualityPoly numeric.Poly
}

// NewCompression validates and builds a compression application.
func NewCompression(p Profile, cr float64, qualityPoly numeric.Poly) (*Compression, error) {
	if !(cr > 0 && cr <= 1) { // NaN fails too
		return nil, fmt.Errorf("app: %s compression ratio %g out of range (0,1]", p.Name, cr)
	}
	if p.CyclesPerSecond <= 0 {
		return nil, fmt.Errorf("app: %s profile has non-positive cycle budget", p.Name)
	}
	if len(qualityPoly) == 0 {
		return nil, fmt.Errorf("app: %s needs a quality polynomial (run casestudy calibration)", p.Name)
	}
	return &Compression{Profile: p, CR: cr, QualityPoly: qualityPoly}, nil
}

// Name returns the profile name.
func (c *Compression) Name() string { return c.Profile.Name }

// OutputRate implements h: φ_out = φ_in · CR, which holds for both DWT and
// CS (§4.3).
func (c *Compression) OutputRate(phiIn units.BytesPerSecond) units.BytesPerSecond {
	return units.BytesPerSecond(float64(phiIn) * c.CR)
}

// Usage implements k: Duty = C/f_µC, with memory terms from the profile.
// The CR dependence is deliberately omitted, matching the paper's model.
func (c *Compression) Usage(_ units.BytesPerSecond, f units.Hertz) Usage {
	return Usage{
		Duty:              c.Profile.CyclesPerSecond / float64(f),
		MemoryBytes:       c.Profile.MemoryBytes,
		AccessesPerSecond: c.Profile.AccessesPerSecond,
	}
}

// RealCyclesPerSecond is the device-level cycle budget including the
// CR-dependent packing/bookkeeping term the model neglects. The simulator
// uses this; the difference is one source of the model's estimation error.
func (c *Compression) RealCyclesPerSecond() float64 {
	const crRef = 0.275 // center of the case-study CR range
	return c.Profile.CyclesPerSecond * (1 + c.Profile.CRSensitivity*(c.CR-crRef)/0.21)
}

// Quality implements e by evaluating the calibrated PRD polynomial at the
// configured CR.
func (c *Compression) Quality(_ units.BytesPerSecond) float64 {
	return c.QualityPoly.Eval(c.CR)
}

// Passthrough is an application that forwards its input unmodified: no
// compression, no processing load, no quality loss. Useful as a baseline
// and for raw-streaming nodes.
type Passthrough struct{}

// Name returns "passthrough".
func (Passthrough) Name() string { return "passthrough" }

// OutputRate returns the input rate unchanged.
func (Passthrough) OutputRate(phiIn units.BytesPerSecond) units.BytesPerSecond { return phiIn }

// Usage returns a negligible fixed footprint.
func (Passthrough) Usage(_ units.BytesPerSecond, _ units.Hertz) Usage {
	return Usage{Duty: 0, MemoryBytes: 256, AccessesPerSecond: 0}
}

// Quality returns 0: lossless forwarding.
func (Passthrough) Quality(_ units.BytesPerSecond) float64 { return 0 }
