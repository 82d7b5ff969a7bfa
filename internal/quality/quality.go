// Package quality implements the signal-fidelity metrics used to evaluate
// the compression applications, chiefly the percentage root-mean-square
// difference (PRD) the paper adopts as its application quality metric e(·)
// (§4.3, following Mamaghanian et al. [13]).
package quality

import (
	"fmt"
	"math"
)

// PRD returns the percentage root-mean-square difference between the
// original signal x and its reconstruction y:
//
//	PRD = 100 · ‖x − y‖₂ / ‖x‖₂
//
// Lower is better; 0 means perfect reconstruction. It returns an error when
// the signals differ in length or the reference has zero energy.
func PRD(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("quality: PRD: length mismatch %d vs %d", len(x), len(y))
	}
	var num, den float64
	for i := range x {
		d := x[i] - y[i]
		num += d * d
		den += x[i] * x[i]
	}
	if den == 0 {
		return 0, fmt.Errorf("quality: PRD: reference signal has zero energy")
	}
	return 100 * math.Sqrt(num/den), nil
}
