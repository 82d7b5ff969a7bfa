// Hospital: explore a heterogeneous ward end to end — select the
// "mixed-ward" scenario (ECG compressors, TelosB temperature motes on
// short frames, an actuator-ack node), run NSGA-II over the three-metric
// model, pick a balanced configuration from the Pareto front, and verify
// it against the packet-level simulator.
//
//	go run ./examples/hospital
package main

import (
	"fmt"
	"log"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/numeric"
	"wsndse/internal/scenario"
	"wsndse/internal/sim"
)

func main() {
	sc, ok := scenario.Lookup("mixed-ward")
	if !ok {
		log.Fatal("mixed-ward not registered")
	}
	problem, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %s: %d nodes, %.3g configurations\n",
		sc.Name, len(sc.Nodes), problem.Space().Size())

	// Multi-objective search with the analytical model: minimize
	// (E_net, quality loss, delay_net) over the per-node design space.
	search := dse.Search{Algorithm: "nsga2", Seed: 2026,
		NSGA2: &dse.NSGA2Config{PopulationSize: 64, Generations: 40}}
	res, err := search.Run(problem.Space(), problem.Evaluator(), dse.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NSGA-II evaluated %d configurations (%d infeasible), front has %d points\n",
		res.Evaluated, res.Infeasible, len(res.Front))

	// A ward wants decent everything: the balanced front point.
	best := dse.BalancedPoint(res.Front)
	params, err := problem.Decode(best.Config)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nselected balanced configuration:\n")
	fmt.Printf("  MAC: BO=%d SO=%d payload=%dB\n",
		params.BeaconOrder, params.SuperframeOrder, params.PayloadBytes)
	fmt.Printf("  CR per node:   %v (raw nodes forward at 1)\n", params.CR)
	fmt.Printf("  f_µC per node: %v\n", params.MicroFreq)
	fmt.Printf("  model: energy %.3f mW, quality %.1f%%, delay %.0f ms\n",
		best.Objs[0]*1e3, best.Objs[1], best.Objs[2]*1e3)

	// Trust, but verify: run the packet-level simulator on the chosen
	// configuration, heterogeneous payload profiles and all.
	simCfg, err := problem.DefaultSimConfig(params)
	if err != nil {
		log.Fatal(err)
	}
	simRes, err := sim.Run(simCfg)
	if err != nil {
		log.Fatal(err)
	}
	var powers, maxDelay []float64
	for _, n := range simRes.Nodes {
		powers = append(powers, float64(n.Power.Total))
		maxDelay = append(maxDelay, float64(n.Delay.Max))
	}
	meanP := numeric.Mean(powers)
	_, worstDelay := numeric.MinMax(maxDelay)
	fmt.Printf("  simulated: mean node power %.3f mW, worst delay %.0f ms, stable=%v\n",
		meanP*1e3, worstDelay*1e3, simRes.Stable)
	if float64(best.Objs[2]) < worstDelay {
		log.Fatalf("delay bound %.0f ms violated by simulation (%.0f ms)",
			best.Objs[2]*1e3, worstDelay*1e3)
	}
	fmt.Println("  delay bound holds in simulation ✓")
}
