package dse

import (
	"strings"
	"testing"
)

// validateSpace is a tiny space shared by the config-validation tests.
func validateSpace() *Space {
	return &Space{Params: []Parameter{
		{Name: "a", Values: []float64{0, 1, 2}},
		{Name: "b", Values: []float64{0, 1}},
	}}
}

// sumEval is a trivial always-feasible evaluator.
type sumEval struct{}

func (sumEval) NumObjectives() int { return 2 }
func (sumEval) Evaluate(c Config) (Objectives, error) {
	return Objectives{float64(c[0]), float64(c[1])}, nil
}

func TestNSGA2ConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  NSGA2Config
		want string
	}{
		{"negative population", NSGA2Config{PopulationSize: -8}, "population size"},
		{"negative generations", NSGA2Config{Generations: -1}, "generation count"},
		{"odd population", NSGA2Config{PopulationSize: 7}, "even"},
		{"tiny population", NSGA2Config{PopulationSize: 2}, "≥ 4"},
		{"crossover above 1", NSGA2Config{CrossoverProb: 1.5}, "crossover probability"},
		{"negative crossover", NSGA2Config{CrossoverProb: -0.1}, "crossover probability"},
		{"mutation above 1", NSGA2Config{MutationProb: 2}, "mutation probability"},
		{"negative mutation", NSGA2Config{MutationProb: -0.5}, "mutation probability"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NSGA2(validateSpace(), sumEval{}, tc.cfg)
			if err == nil {
				t.Fatalf("config %+v accepted", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if verr := tc.cfg.Validate(); verr == nil || verr.Error() != err.Error() {
				t.Errorf("Validate() = %v, the run says %q", verr, err)
			}
		})
	}
	// Zero values still select the documented defaults.
	if _, err := NSGA2(validateSpace(), sumEval{}, NSGA2Config{Generations: 1, PopulationSize: 4}); err != nil {
		t.Errorf("minimal valid config rejected: %v", err)
	}
}

func TestMOSAConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  MOSAConfig
		want string
	}{
		{"negative iterations", MOSAConfig{Iterations: -5}, "iteration budget"},
		{"negative restarts", MOSAConfig{Restarts: -2}, "restart count"},
		{"negative temperature", MOSAConfig{InitialTemp: -1}, "initial temperature"},
		{"cooling at 1", MOSAConfig{Cooling: 1}, "cooling factor"},
		{"cooling negative", MOSAConfig{Cooling: -0.5}, "cooling factor"},
		{"budget below chains", MOSAConfig{Iterations: 3, Restarts: 8}, "zero length"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := MOSA(validateSpace(), sumEval{}, tc.cfg)
			if err == nil {
				t.Fatalf("config %+v accepted", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if verr := tc.cfg.Validate(); verr == nil || verr.Error() != err.Error() {
				t.Errorf("Validate() = %v, the run says %q", verr, err)
			}
		})
	}
	if _, err := MOSA(validateSpace(), sumEval{}, MOSAConfig{Iterations: 8, Restarts: 2}); err != nil {
		t.Errorf("minimal valid config rejected: %v", err)
	}
}

// TestSeedsAllValid documents that any seed (including negative ones) is a
// valid deterministic run, not a degenerate configuration.
func TestSeedsAllValid(t *testing.T) {
	for _, seed := range []int64{-9e18, -1, 0, 1, 9e18} {
		if _, err := NSGA2(validateSpace(), sumEval{}, NSGA2Config{
			PopulationSize: 4, Generations: 1, Seed: seed,
		}); err != nil {
			t.Errorf("NSGA2 rejected seed %d: %v", seed, err)
		}
		if _, err := MOSA(validateSpace(), sumEval{}, MOSAConfig{
			Iterations: 4, Restarts: 2, Seed: seed,
		}); err != nil {
			t.Errorf("MOSA rejected seed %d: %v", seed, err)
		}
	}
}
