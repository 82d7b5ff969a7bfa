package casestudy

import (
	"math"
	"testing"
)

func TestCalibrateProducesSaneCurves(t *testing.T) {
	cal, err := Calibrate(CalibrationConfig{Blocks: 4})
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
	fresh, err := Calibrate(CalibrationConfig{})
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

func TestCalibrateValidation(t *testing.T) {
	if _, err := Calibrate(CalibrationConfig{CRs: []float64{0.2, 0.3}, PolyDegree: 5}); err == nil {
		t.Error("too few CR points for degree: want error")
	}
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
