package casestudy

import (
	"math"
	"sync"
	"testing"
)

// shippedRun is one Calibrate() run, shared by the tests that inspect it.
// Those tests and TestFig4FreshCorpus run in parallel, so the two
// calibrations, the package's slowest work, overlap.
var shippedRun = sync.OnceValues(Calibrate)

func TestCalibrateProducesSaneCurves(t *testing.T) {
	t.Parallel()
	cal, err := shippedRun()
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.DWTMeasured) != len(cal.CRs) || len(cal.CSMeasured) != len(cal.CRs) {
		t.Fatal("measurement vectors mis-sized")
	}
	for i := range cal.CRs {
		if cal.DWTMeasured[i] <= 0 || cal.CSMeasured[i] <= 0 {
			t.Errorf("PRD at CR=%g not positive", cal.CRs[i])
		}
		// The case study's structural fact: CS loses more quality
		// than DWT at every rate.
		if cal.CSMeasured[i] <= cal.DWTMeasured[i] {
			t.Errorf("CR=%g: CS PRD %.2f not worse than DWT %.2f",
				cal.CRs[i], cal.CSMeasured[i], cal.DWTMeasured[i])
		}
	}
	// Both curves decrease from the lowest to the highest rate.
	last := len(cal.CRs) - 1
	if cal.DWTMeasured[last] >= cal.DWTMeasured[0] {
		t.Error("DWT PRD should improve with CR")
	}
	if cal.CSMeasured[last] >= cal.CSMeasured[0] {
		t.Error("CS PRD should improve with CR")
	}
}

func TestCalibrationEstimationErrorsSmall(t *testing.T) {
	// The Fig. 4 claim: the polynomial estimator tracks the measured
	// PRDs within ≈1 PRD point on average.
	cal := DefaultCalibration()
	dwtErr, csErr := cal.EstimationErrors()
	if dwtErr > 1.0 {
		t.Errorf("DWT estimation error %.3f PRD points, want ≤ 1", dwtErr)
	}
	if csErr > 2.0 {
		t.Errorf("CS estimation error %.3f PRD points, want ≤ 2", csErr)
	}
}

func TestDefaultCalibrationMatchesFreshRun(t *testing.T) {
	if testing.Short() {
		t.Skip("codec calibration is slow")
	}
	t.Parallel()
	fresh, err := shippedRun()
	if err != nil {
		t.Fatal(err)
	}
	baked := DefaultCalibration()
	for i := range baked.CRs {
		if math.Abs(fresh.DWTMeasured[i]-baked.DWTMeasured[i]) > 1e-3 {
			t.Errorf("DWT point %d drifted: %.4f vs %.4f", i, fresh.DWTMeasured[i], baked.DWTMeasured[i])
		}
		if math.Abs(fresh.CSMeasured[i]-baked.CSMeasured[i]) > 1e-3 {
			t.Errorf("CS point %d drifted: %.4f vs %.4f", i, fresh.CSMeasured[i], baked.CSMeasured[i])
		}
	}
}

// TestFig4FreshCorpus validates the shipped estimator against ECG data it
// was not fitted on, a stronger check than the paper's Figure 4, which
// compares against the fitting data: the errors grow but stay within a
// few PRD points.
func TestFig4FreshCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("codec calibration is slow")
	}
	t.Parallel()
	fresh, err := calibrate(77)
	if err != nil {
		t.Fatal(err)
	}
	shipped := DefaultCalibration()
	fresh.DWTPoly, fresh.CSPoly = shipped.DWTPoly, shipped.CSPoly
	dwtErr, csErr := fresh.EstimationErrors()
	if dwtErr > 3 {
		t.Errorf("DWT generalization error %.2f PRD points", dwtErr)
	}
	if csErr > 12 {
		t.Errorf("CS generalization error %.2f PRD points", csErr)
	}
	t.Logf("fresh-corpus estimation errors: DWT %.3f, CS %.3f PRD points", dwtErr, csErr)
}

func TestKindString(t *testing.T) {
	if KindDWT.String() != "dwt" || KindCS.String() != "cs" {
		t.Error("kind names")
	}
	kinds := DefaultKinds(6)
	if kinds[0] != KindDWT || kinds[2] != KindDWT || kinds[3] != KindCS || kinds[5] != KindCS {
		t.Errorf("kind split: %v", kinds)
	}
}
