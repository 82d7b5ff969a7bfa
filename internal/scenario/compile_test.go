package scenario

import (
	"math"
	"math/rand"
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/core"
	"wsndse/internal/dse"
)

// TestCompiledMatchesReferenceAllScenarios is the tentpole equivalence
// guarantee: for every registered scenario, and for ecg-ward in the
// axis-major gene layout, the compiled evaluator returns bit-identical
// objectives and identical feasibility (including the infeasibility class)
// to the reference evaluator, both directly and through the batch runtime
// at worker counts 1 and 8.
func TestCompiledMatchesReferenceAllScenarios(t *testing.T) {
	type input struct {
		name  string
		sc    Scenario
		build func(Scenario, *casestudy.Calibration) (*Problem, error)
	}
	var inputs []input
	for _, sc := range List() {
		inputs = append(inputs, input{sc.Name, sc, NewProblem})
	}
	inputs = append(inputs, input{"ecg-ward-axis-major", ECGWard(), NewAxisMajorProblem})
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
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("config %v: reference err %v, compiled err %v", c, werr, gerr)
				}
				if werr != nil {
					if core.IsInfeasible(werr) != core.IsInfeasible(gerr) {
						t.Fatalf("config %v: infeasibility class differs: %v vs %v", c, werr, gerr)
					}
					continue
				}
				feasible++
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("config %v objective %d: %v, want %v (bitwise)", c, k, got[k], want[k])
					}
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

// TestCompiledZeroAllocsScenario pins the allocation guarantee on the
// case-study ward and on a scenario with per-node MAC views (mixed-ward has
// payload-override nodes), the structurally richest compiled path.
func TestCompiledZeroAllocsScenario(t *testing.T) {
	for _, name := range []string{"ecg-ward", "mixed-ward"} {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		problem, err := NewProblem(sc, casestudy.DefaultCalibration())
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := problem.Compile()
		if err != nil {
			t.Fatal(err)
		}
		eval := compiled.Evaluator().(dse.Forkable).Fork().(dse.IntoEvaluator)

		rng := rand.New(rand.NewSource(2))
		var cfg dse.Config
		for i := 0; ; i++ {
			c := problem.Space().Random(rng)
			if _, err := eval.Evaluate(c); err == nil {
				cfg = c
				break
			}
			if i > 20000 {
				t.Fatalf("no feasible %s configuration found", name)
			}
		}
		objs := make(dse.Objectives, 3)
		if err := eval.EvaluateInto(cfg, objs); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(500, func() {
			if err := eval.EvaluateInto(cfg, objs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: compiled EvaluateInto allocates %.1f objects per call in steady state, want 0", name, allocs)
		}
	}
}

// TestAxisMajorMatchesNodeMajor checks that the two gene layouts describe
// the same design space: under the permutation between NewAxisMajorProblem
// and NewProblem genes, ecg-ward's objectives are bitwise equal and
// feasibility agrees.
func TestAxisMajorMatchesNodeMajor(t *testing.T) {
	cal := casestudy.DefaultCalibration()
	node, err := NewProblem(ECGWard(), cal)
	if err != nil {
		t.Fatal(err)
	}
	axis, err := NewAxisMajorProblem(ECGWard(), cal)
	if err != nil {
		t.Fatal(err)
	}
	n := len(axis.Scenario.Nodes)
	// perm[g] is the node-major gene holding axis-major gene g.
	perm := []int{0, 1, 2}
	perm = append(perm, make([]int, 2*n)...)
	for i := 0; i < n; i++ {
		if axis.crGene[i] != 3+i || axis.fGene[i] != 3+n+i {
			t.Fatalf("node %d: axis-major genes (%d, %d), want (%d, %d)",
				i, axis.crGene[i], axis.fGene[i], 3+i, 3+n+i)
		}
		perm[axis.crGene[i]] = node.crGene[i]
		perm[axis.fGene[i]] = node.fGene[i]
	}
	for g, param := range axis.Space().Params {
		if other := node.Space().Params[perm[g]]; other.Name != param.Name || len(other.Values) != len(param.Values) {
			t.Fatalf("gene %d (%s) maps to node-major gene %d (%s)", g, param.Name, perm[g], other.Name)
		}
	}

	evalOf := func(p *Problem) dse.Evaluator {
		c, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return c.Evaluator()
	}
	axisEval, nodeEval := evalOf(axis), evalOf(node)
	rng := rand.New(rand.NewSource(5))
	feasible := 0
	for k := 0; k < 5000; k++ {
		ca := axis.Space().Random(rng)
		cn := make(dse.Config, len(ca))
		for g, v := range ca {
			cn[perm[g]] = v
		}
		want, werr := nodeEval.Evaluate(cn)
		got, gerr := axisEval.Evaluate(ca)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("config %v: node-major err %v, axis-major err %v", ca, werr, gerr)
		}
		if werr != nil {
			continue
		}
		feasible++
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("config %v objective %d: %v, want %v (bitwise)", ca, j, got[j], want[j])
			}
		}
	}
	if feasible == 0 || feasible == 5000 {
		t.Fatalf("%d/5000 feasible: the sample must cover both classes", feasible)
	}
}
