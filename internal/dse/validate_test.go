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
			_, err := Search{Algorithm: "nsga2", NSGA2: &tc.cfg}.Run(validateSpace(), sumEval{}, Options{})
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
	if _, err := (Search{Algorithm: "nsga2",
		NSGA2: &NSGA2Config{Generations: 1, PopulationSize: 4}}).Run(validateSpace(), sumEval{}, Options{}); err != nil {
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
			_, err := Search{Algorithm: "mosa", MOSA: &tc.cfg}.Run(validateSpace(), sumEval{}, Options{})
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
	if _, err := (Search{Algorithm: "mosa",
		MOSA: &MOSAConfig{Iterations: 8, Restarts: 2}}).Run(validateSpace(), sumEval{}, Options{}); err != nil {
		t.Errorf("minimal valid config rejected: %v", err)
	}
}

// TestSeedsAllValid documents that any seed (including negative ones) is a
// valid deterministic run, not a degenerate configuration.
func TestSeedsAllValid(t *testing.T) {
	for _, seed := range []int64{-9e18, -1, 0, 1, 9e18} {
		if _, err := (Search{Algorithm: "nsga2", Seed: seed,
			NSGA2: &NSGA2Config{PopulationSize: 4, Generations: 1}}).Run(validateSpace(), sumEval{}, Options{}); err != nil {
			t.Errorf("NSGA2 rejected seed %d: %v", seed, err)
		}
		if _, err := (Search{Algorithm: "mosa", Seed: seed,
			MOSA: &MOSAConfig{Iterations: 4, Restarts: 2}}).Run(validateSpace(), sumEval{}, Options{}); err != nil {
			t.Errorf("MOSA rejected seed %d: %v", seed, err)
		}
	}
}

// TestSearchRefusesNestedSeedAndWorkers checks that a seed or worker
// count inside the NSGA2 or MOSA config, which no run reads, is an error
// naming the field, from Validate and from Run, whatever the algorithm.
func TestSearchRefusesNestedSeedAndWorkers(t *testing.T) {
	cases := []struct {
		search Search
		want   string
	}{
		{Search{Algorithm: "nsga2", Seed: 3, NSGA2: &NSGA2Config{PopulationSize: 8, Seed: 7}}, "nsga2.seed"},
		{Search{Algorithm: "nsga2", Workers: 1, NSGA2: &NSGA2Config{Workers: 9}}, "nsga2.workers"},
		{Search{Algorithm: "mosa", MOSA: &MOSAConfig{Seed: -1}}, "mosa.seed"},
		{Search{Algorithm: "mosa", MOSA: &MOSAConfig{Iterations: 8, Restarts: 2, Workers: 2}}, "mosa.workers"},
		{Search{Algorithm: "random", NSGA2: &NSGA2Config{Seed: 1}}, "nsga2.seed"},
	}
	for _, tc := range cases {
		err := tc.search.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Validate() = %v, want an error naming %s", tc.search, err, tc.want)
		}
		if _, runErr := tc.search.Run(validateSpace(), sumEval{}, Options{}); runErr == nil || runErr.Error() != err.Error() {
			t.Errorf("%+v: Run returned %v, Validate %v", tc.search, runErr, err)
		}
	}
}
