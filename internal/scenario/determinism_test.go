package scenario

import (
	"reflect"
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/sim"
)

// TestScenarioDeterminism asserts, for every registered scenario, that
// both sides of the stack are bit-identical across repeated runs and
// across worker counts: the model-driven NSGA-II exploration (fronts and
// evaluation counts at workers = 1 vs 8, twice each) and the packet-level
// simulation (two runs of the same configuration). Run it under -race to
// also catch scheduling-dependent state in the batch runtime.
func TestScenarioDeterminism(t *testing.T) {
	cal := casestudy.DefaultCalibration()
	for _, sc := range List() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			p, err := NewProblem(sc, cal)
			if err != nil {
				t.Fatal(err)
			}

			explore := func(workers int) *dse.Result {
				res, err := dse.Search{Algorithm: "nsga2", Seed: 29, Workers: workers,
					NSGA2: &dse.NSGA2Config{PopulationSize: 16, Generations: 4},
				}.Run(p.Space(), p.Evaluator(), dse.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			seq := explore(1)
			if len(seq.Front) == 0 {
				t.Fatalf("scenario %q explored to an empty front", sc.Name)
			}
			for run := 0; run < 2; run++ {
				par := explore(8)
				if !reflect.DeepEqual(seq, par) {
					t.Fatalf("scenario %q: workers=8 run %d differs from workers=1", sc.Name, run)
				}
			}
			if again := explore(1); !reflect.DeepEqual(seq, again) {
				t.Fatalf("scenario %q: sequential re-run differs", sc.Name)
			}

			params, err := p.FeasibleParams()
			if err != nil {
				t.Fatal(err)
			}
			// Model: two evaluations of the same network are identical.
			evalOnce := func() []float64 {
				net, err := p.Network(params)
				if err != nil {
					t.Fatal(err)
				}
				ev, err := net.Evaluate()
				if err != nil {
					t.Fatal(err)
				}
				return []float64{float64(ev.Energy), ev.Quality, float64(ev.Delay)}
			}
			if a, b := evalOnce(), evalOnce(); !reflect.DeepEqual(a, b) {
				t.Fatalf("scenario %q: model evaluation not reproducible: %v vs %v", sc.Name, a, b)
			}

			// Simulator: identical configuration and seed, identical
			// packet-level results.
			simOnce := func() *sim.Result {
				cfg, err := p.SimConfig(params, 10, sc.SimSeed)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if a, b := simOnce(), simOnce(); !reflect.DeepEqual(a, b) {
				t.Fatalf("scenario %q: simulation not reproducible", sc.Name)
			}
		})
	}
}
