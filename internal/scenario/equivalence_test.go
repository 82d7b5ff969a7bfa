package scenario_test

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/core"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/scenario/family"
)

// sameOutcome fails t unless the compiled evaluation (got, gerr) of c
// equals the reference one (want, werr): bitwise equal objectives, or
// errors with the same message and the same *core.InfeasibleError code.
func sameOutcome(t *testing.T, c dse.Config, want dse.Objectives, werr error, got dse.Objectives, gerr error) {
	t.Helper()
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("config %v: reference err %v, compiled err %v", c, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("config %v: compiled error %q, want %q", c, gerr, werr)
		}
		var wie, gie *core.InfeasibleError
		wok, gok := errors.As(werr, &wie), errors.As(gerr, &gie)
		if wok != gok || wok && wie.Code != gie.Code {
			t.Fatalf("config %v: compiled error %#v, want %#v", c, gerr, werr)
		}
		return
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("config %v objective %d: %v, want %v (bitwise)", c, k, got[k], want[k])
		}
	}
}

// familySample returns every seventh member of the chipset-sweep and
// mobile-relay families, built without registering them. The stride is
// prime to every axis size, so the sample mixes every axis.
func familySample(t *testing.T) []scenario.Scenario {
	t.Helper()
	var out []scenario.Scenario
	for _, name := range []string{"chipset-sweep", "mobile-relay"} {
		f, ok := family.Lookup(name)
		if !ok {
			t.Fatalf("family %s not registered", name)
		}
		members := f.Members()
		for i := 0; i < len(members); i += 7 {
			sc, err := f.Scenario(members[i])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sc)
		}
	}
	return out
}

// TestCompiledMatchesReferenceAllScenarios is the equivalence guarantee:
// for every registered scenario, a sample of both scenario families,
// ecg-ward in the axis-major gene layout and an eight-node dense-gts (one
// node more than the compiled evaluator's per-node scratch holds), the
// compiled evaluator returns bit-identical objectives and the same errors
// (message and infeasibility code) as the reference evaluator, both
// directly and through the batch runtime at worker counts 1 and 8.
func TestCompiledMatchesReferenceAllScenarios(t *testing.T) {
	type input struct {
		name  string
		sc    scenario.Scenario
		build func(scenario.Scenario, *casestudy.Calibration) (*scenario.Problem, error)
	}
	var inputs []input
	for _, sc := range scenario.List() {
		inputs = append(inputs, input{sc.Name, sc, scenario.NewProblem})
	}
	inputs = append(inputs, input{"ecg-ward-axis-major", scenario.ECGWard(), scenario.NewAxisMajorProblem},
		input{"dense-gts-8", scenario.DenseGTS(8), scenario.NewProblem})
	for _, sc := range familySample(t) {
		inputs = append(inputs, input{sc.Name, sc, scenario.NewProblem})
	}
	for _, in := range inputs {
		sc := in.sc
		t.Run(in.name, func(t *testing.T) {
			problem, err := in.build(sc, casestudy.DefaultCalibration())
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := problem.Compile()
			if err != nil {
				t.Fatal(err)
			}
			ref := problem.Evaluator()
			fast := compiled.Evaluator()

			rng := rand.New(rand.NewSource(int64(len(sc.Name)) * 1237))
			configs := make([]dse.Config, 0, 260)
			for i := 0; i < 250; i++ {
				configs = append(configs, problem.Space().Random(rng))
			}
			lo := make(dse.Config, len(problem.Space().Params))
			hi := make(dse.Config, len(problem.Space().Params))
			for i, p := range problem.Space().Params {
				hi[i] = len(p.Values) - 1
			}
			configs = append(configs, lo, hi, problem.NominalConfig())

			feasible := 0
			for _, c := range configs {
				want, werr := ref.Evaluate(c)
				got, gerr := fast.Evaluate(c)
				sameOutcome(t, c, want, werr, got, gerr)
				if werr == nil {
					feasible++
				}
			}
			if feasible == 0 {
				t.Logf("scenario %s: no feasible configuration in the sample (infeasibility-stress scenario)", sc.Name)
			}

			// Invalid configurations must be rejected, not evaluated.
			outOfRange := lo.Clone()
			outOfRange[0] = len(sc.BeaconOrders)
			for _, c := range []dse.Config{nil, {0}, append(hi.Clone(), 0), outOfRange} {
				if _, err := fast.Evaluate(c); err == nil {
					t.Fatalf("compiled evaluator accepted invalid config %v", c)
				}
			}

			// Batch runtime at worker counts 1 and 8 against the
			// sequential reference.
			want := dse.NewParallelEvaluator(ref, 1).EvaluateBatch(configs)
			for _, workers := range []int{1, 8} {
				got := dse.NewParallelEvaluator(compiled.Evaluator(), workers).EvaluateBatch(configs)
				for i := range want {
					if got[i].Feasible != want[i].Feasible {
						t.Fatalf("workers=%d: config %v feasibility %v, want %v",
							workers, configs[i], got[i].Feasible, want[i].Feasible)
					}
					if !want[i].Feasible {
						continue
					}
					for k := range want[i].Objs {
						if math.Float64bits(got[i].Objs[k]) != math.Float64bits(want[i].Objs[k]) {
							t.Fatalf("workers=%d: config %v objective %d: %v, want %v (bitwise)",
								workers, configs[i], k, got[i].Objs[k], want[i].Objs[k])
						}
					}
				}
			}
		})
	}
}

// TestCompiledMatchesReferenceEveryTableEntry sets every node of
// ecg-ward, mixed-ward (nodes with their own payload) and dense-gts to
// each (BO, SFO gap, payload, CR, f_µC) tuple, so every entry of every
// compiled table meets the reference evaluator at least once. A node
// with a shorter CR or f_µC grid takes its last value.
func TestCompiledMatchesReferenceEveryTableEntry(t *testing.T) {
	for _, name := range []string{"ecg-ward", "mixed-ward", "dense-gts"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := scenario.Lookup(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			problem, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := problem.Compile()
			if err != nil {
				t.Fatal(err)
			}
			ref := problem.Evaluator()
			fast := compiled.Evaluator()
			params := problem.Space().Params
			nCR, nF := 1, 1
			for _, p := range params {
				switch {
				case strings.HasPrefix(p.Name, "cr:"):
					nCR = max(nCR, len(p.Values))
				case strings.HasPrefix(p.Name, "fuc:"):
					nF = max(nF, len(p.Values))
				}
			}
			c := make(dse.Config, len(params))
			feasible, total := 0, 0
			for b := range sc.BeaconOrders {
				for g := range sc.SFOGaps {
					for pay := range sc.Payloads {
						for cr := 0; cr < nCR; cr++ {
							for f := 0; f < nF; f++ {
								c[0], c[1], c[2] = b, g, pay
								for i := 3; i < len(c); i++ {
									v := f
									if strings.HasPrefix(params[i].Name, "cr:") {
										v = cr
									}
									c[i] = min(v, len(params[i].Values)-1)
								}
								want, werr := ref.Evaluate(c)
								got, gerr := fast.Evaluate(c)
								sameOutcome(t, c, want, werr, got, gerr)
								total++
								if werr == nil {
									feasible++
								}
							}
						}
					}
				}
			}
			t.Logf("%s: %d tuples, %d feasible", name, total, feasible)
		})
	}
}
