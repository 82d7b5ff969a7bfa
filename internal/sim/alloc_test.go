package sim_test

import (
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/scenario"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

// TestSimRunSteadyStateAllocs bounds how a run's allocations grow with its
// length. It runs ecg-ward's benchmark configuration (BO 3, SO 2, 48-byte
// payload, CR 0.23 at 8 MHz, seed 1) for 60 s and for 3000 s of simulated
// time. The longer run dispatches 50 times as many events and radio
// transitions; only the per-node result slices (delays, queue samples)
// may grow, by doubling, so no event or transition may allocate.
func TestSimRunSteadyStateAllocs(t *testing.T) {
	const maxGrowth = 160
	p, err := scenario.NewProblem(scenario.ECGWard(), casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	params := scenario.Params{BeaconOrder: 3, SuperframeOrder: 2, PayloadBytes: 48}
	for range p.Scenario.Nodes {
		params.CR = append(params.CR, 0.23)
		params.MicroFreq = append(params.MicroFreq, 8e6)
	}
	allocs := func(d units.Seconds) (float64, int64) {
		cfg, err := p.SimConfig(params, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		var events int64
		n := testing.AllocsPerRun(1, func() {
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			events = res.Events
		})
		return n, events
	}
	short, shortEvents := allocs(60)
	long, longEvents := allocs(3000)
	t.Logf("%.0f allocations for %d events, %.0f for %d", short, shortEvents, long, longEvents)
	if long-short > maxGrowth {
		t.Errorf("a 3000 s run allocates %.0f objects, %.0f more than a 60 s run (bound %d)",
			long, long-short, maxGrowth)
	}
}
