package experiments

import (
	"io"
	"math/rand"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
)

// writer is the rendering sink used by every experiment.
type writer = io.Writer

// wardProblem is the §4 case study under the calibration: sc (an ecg-ward
// variant) with its genes in the axis-major order every seeded search and
// random draw of the harness was recorded with.
func wardProblem(sc scenario.Scenario, cal *casestudy.Calibration) (*scenario.Problem, dse.Evaluator, error) {
	return compile(scenario.NewAxisMajorProblem(sc, cal))
}

// compile pairs a freshly built problem with its compiled evaluator, the
// pipeline the service runs, bit-identical to problem.Evaluator().
func compile(problem *scenario.Problem, err error) (*scenario.Problem, dse.Evaluator, error) {
	if err != nil {
		return nil, nil, err
	}
	compiled, err := problem.Compile()
	if err != nil {
		return nil, nil, err
	}
	return problem, compiled.Evaluator(), nil
}

// drawFeasible rejection-samples a random configuration the evaluator
// accepts and decodes it.
func drawFeasible(p *scenario.Problem, eval dse.Evaluator, rng *rand.Rand) (dse.Config, scenario.Params, error) {
	for {
		c := p.Space().Random(rng)
		if _, err := eval.Evaluate(c); err != nil {
			continue
		}
		params, err := p.Decode(c)
		return c, params, err
	}
}
