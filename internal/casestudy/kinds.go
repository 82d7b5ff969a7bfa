package casestudy

import (
	"fmt"

	"wsndse/internal/app"
	"wsndse/internal/units"
)

// DefaultNodes is the case study's network size (§4.1: N = 6 patients).
const DefaultNodes = 6

// SampleRate is the ECG sampling frequency fixed by the signal (§4.3).
const SampleRate units.Hertz = 250

// Kind labels a node's application.
type Kind int

// Node kinds. The case study splits the network half and half between the
// two compressors; KindRaw (an uncompressed passthrough stream) exists for
// heterogeneous scenarios beyond the paper's §4 network.
const (
	KindDWT Kind = iota
	KindCS
	KindRaw
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindDWT:
		return "dwt"
	case KindCS:
		return "cs"
	case KindRaw:
		return "raw"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DefaultKinds assigns the first half of the nodes to DWT and the rest to
// CS, as in §4.1.
func DefaultKinds(n int) []Kind {
	kinds := make([]Kind, n)
	for i := range kinds {
		if i >= n/2 {
			kinds[i] = KindCS
		}
	}
	return kinds
}

// AppFor builds the application for one node kind: the calibrated DWT or
// CS compressor at the given compression ratio, or the lossless
// passthrough for raw-streaming nodes (whose CR is ignored — they always
// forward at CR 1).
func AppFor(cal *Calibration, kind Kind, cr float64) (app.Application, error) {
	switch kind {
	case KindDWT:
		return app.NewCompression(app.DWTProfile(), cr, cal.DWTPoly)
	case KindCS:
		return app.NewCompression(app.CSProfile(), cr, cal.CSPoly)
	case KindRaw:
		return app.Passthrough{}, nil
	default:
		return nil, fmt.Errorf("casestudy: unknown kind %d", kind)
	}
}
