package wsndse_test

import (
	"fmt"
	"log"

	"wsndse/internal/casestudy"
	"wsndse/internal/core"
	"wsndse/internal/scenario"
	"wsndse/internal/units"
)

// Example_evaluate builds the paper's six-node case-study network at one
// operating point and reads the Eq. 8 network metrics.
func Example_evaluate() {
	problem, err := scenario.NewProblem(scenario.ECGWard(), casestudy.DefaultCalibration())
	if err != nil {
		log.Fatal(err)
	}
	net, err := problem.Network(scenario.Params{
		BeaconOrder:     3,
		SuperframeOrder: 2,
		PayloadBytes:    48,
		CR:              []float64{0.23, 0.23, 0.23, 0.23, 0.23, 0.23},
		MicroFreq:       []units.Hertz{8e6, 8e6, 8e6, 8e6, 8e6, 8e6},
	})
	if err != nil {
		log.Fatal(err)
	}
	ev, err := net.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("energy %v, PRD %.2f%%, delay %v\n", ev.Energy, ev.Quality, ev.Delay)
	fmt.Printf("slots per node: %v\n", ev.Assignment.K)
	// Output:
	// energy 4.528mW, PRD 40.26%, delay 129.5ms
	// slots per node: [1 1 1 1 1 1]
}

// Example_infeasible shows the constraint handling the DSE relies on: the
// wavelet compressor cannot complete at 1 MHz (duty cycle 226 %), which
// the model reports as a typed infeasibility rather than a number.
func Example_infeasible() {
	problem, err := scenario.NewProblem(scenario.ECGWardN(2), casestudy.DefaultCalibration())
	if err != nil {
		log.Fatal(err)
	}
	net, err := problem.Network(scenario.Params{
		BeaconOrder:     3,
		SuperframeOrder: 2,
		PayloadBytes:    48,
		CR:              []float64{0.23, 0.23},
		MicroFreq:       []units.Hertz{1e6, 1e6}, // DWT node cannot run here
	})
	if err != nil {
		log.Fatal(err)
	}
	_, err = net.Evaluate()
	fmt.Println(core.IsInfeasible(err))
	// Output:
	// true
}
