package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

// The evaluation-throughput comparison (§5.2): speedModelEvals model
// evaluations, spread evenly over the speedRounds rounds, against
// speedSimRuns configurations, each simulated for speedSimDuration once
// per round. The paper's Castalia runs took 5–10 minutes per
// configuration.
const (
	speedModelEvals                = 20000
	speedSimRuns                   = 3
	speedSimDuration units.Seconds = 60
	speedSeed                      = 3
)

// SpeedResult reports both sides and the resulting ratio.
type SpeedResult struct {
	ModelEvalsPerSecond float64
	ModelEvalMean       time.Duration
	SimWallPerRun       time.Duration
	SimDuration         units.Seconds
	// Speedup is simulation wall-clock per configuration divided by
	// model wall-clock per configuration.
	Speedup float64
	// OrdersOfMagnitude is log10(Speedup), the unit the paper uses
	// ("up to 6 orders of magnitude").
	OrdersOfMagnitude float64
}

// Speed measures model evaluations per second against packet-level
// simulation wall-clock per configuration, using random feasible points.
// After one untimed pass over each side it alternates the two timings in
// speedRounds rounds and reports each side's median round, so the ratio
// holds up when other work shares the machine.
func Speed() (*SpeedResult, error) {
	problem, compiled, err := wardProblem(scenario.ECGWard())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(speedSeed))

	// Pre-draw feasible configurations so the timed loop measures only
	// evaluation.
	const poolSize = 64
	pool := make([]dse.Config, 0, poolSize)
	var params []scenario.Params
	for len(pool) < poolSize {
		c, p, err := drawFeasible(problem, compiled, rng)
		if err != nil {
			return nil, err
		}
		pool, params = append(pool, c), append(params, p)
	}

	// The timed loop runs the reference evaluator: the model rebuilding
	// the network per call, without the compiled lookup tables.
	eval := problem.Evaluator()
	sims := make([]sim.Config, speedSimRuns)
	for i := range sims {
		if sims[i], err = problem.SimConfig(params[i%poolSize], speedSimDuration, speedSeed+int64(i)); err != nil {
			return nil, err
		}
	}
	// One untimed pass over both sides first, so neither timing pays the
	// first calls' set-up.
	if _, err := timeModel(eval, pool, poolSize); err != nil {
		return nil, err
	}
	if _, err := sim.Run(sims[0]); err != nil {
		return nil, err
	}

	// The two sides alternate, round by round, so a phase of load on the
	// machine slows both, and each side reports its median round.
	const block = speedModelEvals / speedRounds
	var perEval, perRun []time.Duration
	for round := 0; round < speedRounds; round++ {
		d, err := timeModel(eval, pool, block)
		if err != nil {
			return nil, err
		}
		perEval = append(perEval, d/time.Duration(block))
		for _, sc := range sims {
			start := time.Now()
			if _, err := sim.Run(sc); err != nil {
				return nil, err
			}
			perRun = append(perRun, time.Since(start))
		}
	}

	res := &SpeedResult{
		ModelEvalMean: medianDuration(perEval),
		SimWallPerRun: medianDuration(perRun),
		SimDuration:   speedSimDuration,
	}
	if res.ModelEvalMean > 0 {
		res.ModelEvalsPerSecond = float64(time.Second) / float64(res.ModelEvalMean)
		res.Speedup = float64(res.SimWallPerRun) / float64(res.ModelEvalMean)
	}
	if res.Speedup > 0 {
		res.OrdersOfMagnitude = math.Log10(res.Speedup)
	}
	return res, nil
}

// speedRounds is how many alternating model and simulation rounds Speed
// times. Short rounds keep each model block next to a simulation run in
// time, and the median of many rounds shrugs off bursts of load: beside a
// concurrent ward search on a 2-vCPU machine, 120 calls of 2,000
// evaluations and one 20 s simulation read at least 1.62 orders of
// magnitude with 15 rounds, against 1.42 when one long model block was
// timed before the simulation.
const speedRounds = 15

// timeModel times n evaluations of eval, cycling through pool.
func timeModel(eval dse.Evaluator, pool []dse.Config, n int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := eval.Evaluate(pool[i%len(pool)]); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// medianDuration returns the median of ds, which it sorts.
func medianDuration(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// Render writes the comparison.
func (r *SpeedResult) Render(w writer) {
	fmt.Fprintf(w, "Evaluation speed — analytical model vs packet-level simulation\n")
	fmt.Fprintf(w, "model:      %.0f evaluations/s (%.3gs each)\n",
		r.ModelEvalsPerSecond, r.ModelEvalMean.Seconds())
	fmt.Fprintf(w, "simulation: %.3gs wall-clock per %v-long configuration\n",
		r.SimWallPerRun.Seconds(), r.SimDuration)
	fmt.Fprintf(w, "speedup:    %.3g× (%.1f orders of magnitude)\n", r.Speedup, r.OrdersOfMagnitude)
	fmt.Fprintf(w, "paper:      ≈4800 evaluations/s vs 5–10 min per simulation (≈6 orders)\n")
}

// Check verifies the §5.2 claim with reproduction tolerances: the model
// clears the paper's ≈4800 evals/s and the gap spans orders of magnitude.
// Our packet-level simulator is itself several orders faster than
// Castalia (a few milliseconds per minute of simulated time versus the
// paper's 5–10 minutes of wall clock), so the measured ratio lands around
// 2–3 orders instead of 6; the structural asymmetry — model fast enough
// for DSE, simulation not — is the claim under test.
func (r *SpeedResult) Check() error {
	if r.ModelEvalsPerSecond < 4800 {
		return fmt.Errorf("speed: model runs %.0f evals/s, below the paper's 4800", r.ModelEvalsPerSecond)
	}
	if r.OrdersOfMagnitude < 1.5 {
		return fmt.Errorf("speed: only %.1f orders of magnitude between model and simulation",
			r.OrdersOfMagnitude)
	}
	return nil
}
