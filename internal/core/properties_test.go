package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/units"
)

// TestCombineMonotoneInTheta: for a fixed value vector, Eq. 8 grows
// linearly with ϑ, and equals the mean at ϑ = 0.
func TestCombineMonotoneInTheta(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 10
		}
		prev := Combine(vals, 0)
		for _, theta := range []float64{0.25, 0.5, 1, 2} {
			cur := Combine(vals, theta)
			if cur < prev-1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestEvaluateDeterministic: the model is a pure function of the
// configuration.
func TestEvaluateDeterministic(t *testing.T) {
	net := testNetwork(t, 6, 0.29, 8e6)
	a, err := net.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy != b.Energy || a.Quality != b.Quality || a.Delay != b.Delay {
		t.Error("Evaluate is not deterministic")
	}
}

// TestRadioEnergyDecreasesWithPayload: larger frames amortize the 13-byte
// MAC overhead and per-packet costs, so at a fixed stream the radio term
// shrinks as L_payload grows — the payload knob's whole reason to exist in
// χ_mac.
func TestRadioEnergyDecreasesWithPayload(t *testing.T) {
	n := testNode(t, "a", "cs", 0.29, 8e6)
	var prev float64 = math.Inf(1)
	for _, payload := range []int{32, 48, 64, 80, 102} {
		mac := testMAC(t, 3, 2, payload, 1)
		eb, err := n.Energy(mac)
		if err != nil {
			t.Fatal(err)
		}
		if float64(eb.Radio) >= prev {
			t.Errorf("payload %d: radio %v not below smaller payload", payload, eb.Radio)
		}
		prev = float64(eb.Radio)
	}
}

// TestBeaconEnergyDecreasesWithBeaconOrder: longer beacon intervals
// amortize beacon reception, so the radio term shrinks with BO at fixed
// traffic — the other half of the energy/delay tradeoff Figure 5 explores.
func TestBeaconEnergyDecreasesWithBeaconOrder(t *testing.T) {
	n := testNode(t, "a", "cs", 0.23, 8e6)
	var prev float64 = math.Inf(1)
	for bo := 1; bo <= 6; bo++ {
		mac := testMAC(t, bo, min(bo, 2), 48, 1)
		eb, err := n.Energy(mac)
		if err != nil {
			t.Fatal(err)
		}
		if float64(eb.Radio) >= prev {
			t.Errorf("BO=%d: radio %v not below shorter interval", bo, eb.Radio)
		}
		prev = float64(eb.Radio)
	}
}

// TestDelayBoundDominatesAcrossRandomAssignments: for random feasible
// assignments, the Eq. 9 bound always clears one beacon interval (the
// physical floor of a per-superframe schedule) and stays finite.
func TestDelayBoundDominatesAcrossRandomAssignments(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bo := 2 + r.Intn(5)
		so := bo - r.Intn(min(bo, 3))
		payload := []int{32, 48, 64}[r.Intn(3)]
		nNodes := 1 + r.Intn(4)
		mac, err := NewGTSMac(ieee.SuperframeConfig{BeaconOrder: bo, SuperframeOrder: so}, payload, nNodes)
		if err != nil {
			return true // invalid geometry; skip
		}
		phi := make([]units.BytesPerSecond, nNodes)
		for i := range phi {
			phi[i] = units.BytesPerSecond(40 + r.Float64()*100)
		}
		var a Assignment
		if err := AssignHeteroInto(&a, mac, nil, phi); err != nil {
			return true // infeasible draw; skip
		}
		bi := float64(mac.Superframe.BeaconInterval())
		for i := range phi {
			d := float64(mac.WorstCaseDelay(a.DeltaTx, i))
			if math.IsNaN(d) || d < bi || d > 4*bi {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestTotalEqualsSumAcrossGrid: Eq. 7's accounting identity holds on the
// whole case-study grid.
func TestTotalEqualsSumAcrossGrid(t *testing.T) {
	for _, kind := range []string{"dwt", "cs"} {
		for _, cr := range []float64{0.17, 0.26, 0.38} {
			for _, fuc := range []units.Hertz{2e6, 8e6, 16e6} {
				n := testNode(t, "x", kind, cr, fuc)
				mac := testMAC(t, 3, 2, 48, 1)
				eb, err := n.Energy(mac)
				if IsInfeasible(err) {
					continue // DWT below ~2.3 MHz cannot run
				}
				if err != nil {
					t.Fatal(err)
				}
				sum := eb.Sensor + eb.Micro + eb.Memory + eb.Radio
				if math.Abs(float64(sum-eb.Total)) > 1e-18 {
					t.Fatalf("%s cr=%g f=%v: total %v ≠ sum %v", kind, cr, fuc, eb.Total, sum)
				}
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
