package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/units"
)

// SpeedConfig parameterizes the evaluation-throughput comparison (§5.2).
type SpeedConfig struct {
	Cal *casestudy.Calibration
	// ModelEvals is the number of model evaluations to time (default
	// 20000).
	ModelEvals int
	// SimRuns and SimDuration define the simulation side: the paper's
	// Castalia runs took 5–10 minutes per configuration.
	SimRuns     int
	SimDuration units.Seconds
	Seed        int64
}

func (c SpeedConfig) withDefaults() SpeedConfig {
	if c.Cal == nil {
		c.Cal = casestudy.DefaultCalibration()
	}
	if c.ModelEvals == 0 {
		c.ModelEvals = 20000
	}
	if c.SimRuns == 0 {
		c.SimRuns = 3
	}
	if c.SimDuration == 0 {
		c.SimDuration = 60
	}
	if c.Seed == 0 {
		c.Seed = 3
	}
	return c
}

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
func Speed(cfg SpeedConfig) (*SpeedResult, error) {
	cfg = cfg.withDefaults()
	problem, compiled, err := wardProblem(scenario.ECGWard(), cfg.Cal)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Pre-draw feasible configurations so the timed loop measures only
	// evaluation.
	const poolSize = 64
	type draw struct {
		c      dse.Config
		params scenario.Params
	}
	pool := make([]draw, 0, poolSize)
	for len(pool) < poolSize {
		c, params, err := drawFeasible(problem, compiled, rng)
		if err != nil {
			return nil, err
		}
		pool = append(pool, draw{c, params})
	}

	// The timed loop runs the reference evaluator: the model rebuilding
	// the network per call, without the compiled lookup tables.
	eval := problem.Evaluator()
	start := time.Now()
	for i := 0; i < cfg.ModelEvals; i++ {
		if _, err := eval.Evaluate(pool[i%poolSize].c); err != nil {
			return nil, err
		}
	}
	modelWall := time.Since(start)

	var simWall time.Duration
	for i := 0; i < cfg.SimRuns; i++ {
		simCfg, err := problem.SimConfig(pool[i%poolSize].params, cfg.SimDuration, cfg.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := runSim(simCfg); err != nil {
			return nil, err
		}
		simWall += time.Since(start)
	}

	res := &SpeedResult{
		ModelEvalMean: modelWall / time.Duration(cfg.ModelEvals),
		SimWallPerRun: simWall / time.Duration(cfg.SimRuns),
		SimDuration:   cfg.SimDuration,
	}
	res.ModelEvalsPerSecond = float64(cfg.ModelEvals) / modelWall.Seconds()
	if res.ModelEvalMean > 0 {
		res.Speedup = float64(res.SimWallPerRun) / float64(res.ModelEvalMean)
	}
	if res.Speedup > 0 {
		res.OrdersOfMagnitude = math.Log10(res.Speedup)
	}
	return res, nil
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
