// Package casestudy holds what only the paper's §4 case study owns: a
// hospital WBSN of six ECG nodes — three compressing with the discrete
// wavelet transform, three with compressed sensing — on Shimmer-class
// hardware under the beacon-enabled IEEE 802.15.4 MAC.
//
// It owns the calibration step that the paper performs against measured
// data (§4.3): running the actual codecs over an ECG corpus to obtain the
// per-application PRD-vs-CR points, then fitting the fifth-order
// polynomials P₅(CR) the analytical model uses as its quality estimator
// e(φ_in, χ_node). It also owns the application kinds (Kind, DefaultKinds,
// AppFor), the network size and sample rate, and the CR grid.
//
// The case study's design space, evaluators and simulator configuration
// are not here: the network is the ecg-ward scenario (scenario.ECGWard),
// and internal/scenario formulates it like any other workload.
package casestudy

import (
	"fmt"

	"wsndse/internal/cs"
	"wsndse/internal/dwt"
	"wsndse/internal/ecg"
	"wsndse/internal/numeric"
	"wsndse/internal/quality"
)

// CRGrid is the compression-ratio grid of the paper's Figures 3–4.
func CRGrid() []float64 {
	return []float64{0.17, 0.20, 0.23, 0.26, 0.29, 0.32, 0.35, 0.38}
}

// CalibrationConfig parameterizes a calibration run.
type CalibrationConfig struct {
	Blocks       int       // ECG corpus size in blocks (default 8)
	BlockSamples int       // samples per block (default 512)
	Seed         int64     // ECG generator / CS matrix seed (default 1)
	CRs          []float64 // CR grid (default CRGrid())
	PolyDegree   int       // fit degree (default 5, per the paper)
}

func (c CalibrationConfig) withDefaults() CalibrationConfig {
	if c.Blocks == 0 {
		c.Blocks = 8
	}
	if c.BlockSamples == 0 {
		c.BlockSamples = 512
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CRs == nil {
		c.CRs = CRGrid()
	}
	if c.PolyDegree == 0 {
		c.PolyDegree = 5
	}
	return c
}

// Calibration holds the fitted quality estimators together with the
// measurements they were fit from, so estimation errors (Fig. 4) can be
// recomputed at any time.
type Calibration struct {
	CRs []float64

	// DWTMeasured and CSMeasured are the corpus-mean PRDs at each CR,
	// obtained by actually compressing and reconstructing the signals.
	DWTMeasured []float64
	CSMeasured  []float64

	// DWTPoly and CSPoly are the paper's P₅ estimators fit to the
	// measurements.
	DWTPoly numeric.Poly
	CSPoly  numeric.Poly
}

// Calibrate runs both codecs over a synthetic ECG corpus and fits the
// quality polynomials.
func Calibrate(cfg CalibrationConfig) (*Calibration, error) {
	cfg = cfg.withDefaults()
	if len(cfg.CRs) <= cfg.PolyDegree {
		return nil, fmt.Errorf("casestudy: %d CR points cannot support a degree-%d fit",
			len(cfg.CRs), cfg.PolyDegree)
	}
	gcfg := ecg.DefaultConfig()
	gcfg.Seed = cfg.Seed
	gen, err := ecg.NewGenerator(gcfg)
	if err != nil {
		return nil, err
	}
	adc := ecg.DefaultADC()
	corpus := gen.Corpus(cfg.Blocks, cfg.BlockSamples)
	// Digitize: the node compresses what the ADC saw.
	for i := range corpus {
		corpus[i] = adc.Digitize(corpus[i])
	}

	wavelet := dwt.Daubechies4()
	levels := 5
	if ml := wavelet.MaxLevels(cfg.BlockSamples); levels > ml {
		levels = ml
	}
	dwtCodec := dwt.NewCodec(wavelet, levels)
	csCodec := cs.NewCodec(cfg.BlockSamples, wavelet, levels, cfg.Seed)

	cal := &Calibration{CRs: append([]float64(nil), cfg.CRs...)}
	for _, cr := range cfg.CRs {
		var dwtSum, csSum float64
		for _, block := range corpus {
			z, err := dwtCodec.Compress(block, cr, adc.Bits)
			if err != nil {
				return nil, fmt.Errorf("casestudy: dwt at cr=%g: %w", cr, err)
			}
			rec, err := dwt.Decompress(z.Payload)
			if err != nil {
				return nil, err
			}
			prd, err := quality.PRD(block, rec)
			if err != nil {
				return nil, err
			}
			dwtSum += prd

			zc, err := csCodec.Compress(block, cr, adc.Bits)
			if err != nil {
				return nil, fmt.Errorf("casestudy: cs at cr=%g: %w", cr, err)
			}
			recc, err := csCodec.Decompress(zc.Payload)
			if err != nil {
				return nil, err
			}
			prdc, err := quality.PRD(block, recc)
			if err != nil {
				return nil, err
			}
			csSum += prdc
		}
		cal.DWTMeasured = append(cal.DWTMeasured, dwtSum/float64(len(corpus)))
		cal.CSMeasured = append(cal.CSMeasured, csSum/float64(len(corpus)))
	}

	cal.DWTPoly, err = numeric.PolyFit(cal.CRs, cal.DWTMeasured, cfg.PolyDegree)
	if err != nil {
		return nil, fmt.Errorf("casestudy: DWT fit: %w", err)
	}
	cal.CSPoly, err = numeric.PolyFit(cal.CRs, cal.CSMeasured, cfg.PolyDegree)
	if err != nil {
		return nil, fmt.Errorf("casestudy: CS fit: %w", err)
	}
	return cal, nil
}

// EstimationErrors returns the mean absolute error of each polynomial
// against its calibration measurements, in PRD percentage points — the
// quantity Fig. 4's caption reports (0.46 % DWT, 0.92 % CS in the paper).
func (c *Calibration) EstimationErrors() (dwtErr, csErr float64) {
	for i, cr := range c.CRs {
		dwtErr += abs(c.DWTPoly.Eval(cr) - c.DWTMeasured[i])
		csErr += abs(c.CSPoly.Eval(cr) - c.CSMeasured[i])
	}
	n := float64(len(c.CRs))
	return dwtErr / n, csErr / n
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
