package casestudy_test

// The §4 case study's design-space formulation lives in internal/scenario
// (the ecg-ward scenario, in the axis-major gene layout the paper harness
// uses). These tests pin the paper's claims about that formulation.

import (
	"math"
	"math/rand"
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/core"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/units"
)

func wardProblem(t *testing.T) *scenario.Problem {
	t.Helper()
	p, err := scenario.NewAxisMajorProblem(scenario.ECGWard(), casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fig3Params is the Fig. 3 operating point: every node at CR 0.23, 8 MHz.
func fig3Params() scenario.Params {
	n := casestudy.DefaultNodes
	p := scenario.Params{
		BeaconOrder:     3,
		SuperframeOrder: 2,
		PayloadBytes:    48,
		CR:              make([]float64, n),
		MicroFreq:       make([]units.Hertz, n),
	}
	for i := 0; i < n; i++ {
		p.CR[i] = 0.23
		p.MicroFreq[i] = 8e6
	}
	return p
}

func TestParamsNetworkEvaluates(t *testing.T) {
	net, err := wardProblem(t).Network(fig3Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Nodes) != casestudy.DefaultNodes {
		t.Fatalf("%d nodes", len(net.Nodes))
	}
	// Half DWT, half CS.
	if net.Nodes[0].App.Name() != "dwt" || net.Nodes[5].App.Name() != "cs" {
		t.Error("kind split wrong")
	}
	ev, err := net.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Energy <= 0 || ev.Quality <= 0 || ev.Delay <= 0 {
		t.Errorf("metrics: %+v", ev)
	}
	// Node powers in the Figure 3 range (single-digit mJ/s).
	for i, eb := range ev.PerNode {
		if eb.Total < 1e-3 || eb.Total > 15e-3 {
			t.Errorf("node %d power %v outside plausible range", i, eb.Total)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	p := wardProblem(t)
	bad := fig3Params()
	bad.CR = bad.CR[:3]
	if _, err := p.Network(bad); err == nil {
		t.Error("mismatched vectors accepted")
	}
	bad = fig3Params()
	bad.SuperframeOrder = 9
	if _, err := p.Network(bad); err == nil {
		t.Error("SO > BO accepted")
	}
	bad = fig3Params()
	bad.PayloadBytes = 0
	if _, err := p.Network(bad); err == nil {
		t.Error("payload 0 accepted")
	}
}

func TestProblemSpace(t *testing.T) {
	s := wardProblem(t).Space()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper: "the number of possible network configurations of this
	// case study exceeds the tens of millions".
	if s.Size() < 1e7 {
		t.Errorf("space size %.3g, want > 10⁷", s.Size())
	}
	if len(s.Params) != 3+2*casestudy.DefaultNodes {
		t.Errorf("%d genes", len(s.Params))
	}
}

func TestProblemDecode(t *testing.T) {
	p := wardProblem(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		params, err := p.Decode(p.Space().Random(rng))
		if err != nil {
			t.Fatal(err)
		}
		if len(params.CR) != casestudy.DefaultNodes || len(params.MicroFreq) != casestudy.DefaultNodes {
			t.Errorf("decoded %d CRs, %d frequencies", len(params.CR), len(params.MicroFreq))
		}
		if params.SuperframeOrder > params.BeaconOrder || params.SuperframeOrder < 0 {
			t.Errorf("SFO %d out of range for BO %d", params.SuperframeOrder, params.BeaconOrder)
		}
	}
	if _, err := p.Decode(dse.Config{0}); err == nil {
		t.Error("short config accepted")
	}
}

func TestProblemEvaluator(t *testing.T) {
	p := wardProblem(t)
	e := p.Evaluator()
	if e.NumObjectives() != 3 {
		t.Error("objective count")
	}
	rng := rand.New(rand.NewSource(9))
	feasible, infeasible := 0, 0
	for i := 0; i < 300; i++ {
		objs, err := e.Evaluate(p.Space().Random(rng))
		if err != nil {
			if !core.IsInfeasible(err) {
				t.Fatalf("non-constraint error: %v", err)
			}
			infeasible++
			continue
		}
		feasible++
		if len(objs) != 3 {
			t.Fatal("objective vector length")
		}
		for j, o := range objs {
			if o <= 0 || math.IsNaN(o) {
				t.Errorf("objective %d = %g", j, o)
			}
		}
	}
	if feasible == 0 {
		t.Error("no feasible configurations in 300 draws")
	}
	if infeasible == 0 {
		t.Error("no infeasible configurations in 300 draws (constraints too loose)")
	}
}

// sameObjs asserts bitwise equality of objective vectors (NaN-safe).
func sameObjs(t *testing.T, label string, c dse.Config, got, want dse.Objectives) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: config %v: %d objectives, want %d", label, c, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: config %v objective %d: %v (bits %x), want %v (bits %x)",
				label, c, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

// TestCompiledMatchesReference: over a large random sample of the case
// study (plus the all-first and all-last corner points) the compiled
// evaluator returns bit-identical objectives and identical feasibility,
// including the infeasibility class, to the reference evaluator.
func TestCompiledMatchesReference(t *testing.T) {
	problem := wardProblem(t)
	compiled, err := problem.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ref := problem.Evaluator()
	fast := compiled.Evaluator()

	rng := rand.New(rand.NewSource(42))
	configs := make([]dse.Config, 0, 502)
	for i := 0; i < 500; i++ {
		configs = append(configs, problem.Space().Random(rng))
	}
	lo := make(dse.Config, len(problem.Space().Params))
	hi := make(dse.Config, len(problem.Space().Params))
	for i, p := range problem.Space().Params {
		hi[i] = len(p.Values) - 1
	}
	configs = append(configs, lo, hi)

	feasible, infeasible := 0, 0
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
			infeasible++
			continue
		}
		feasible++
		sameObjs(t, "direct", c, got, want)
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("sample covered %d feasible / %d infeasible configs; need both", feasible, infeasible)
	}

	// Invalid configurations must be rejected, not evaluated.
	outOfRange := lo.Clone()
	outOfRange[0] = len(problem.Scenario.BeaconOrders)
	for _, c := range []dse.Config{nil, {0}, append(hi.Clone(), 0), outOfRange} {
		if _, err := fast.Evaluate(c); err == nil {
			t.Fatalf("compiled evaluator accepted invalid config %v", c)
		}
	}
}

// TestCompiledBatchWorkerEquivalence runs the compiled case-study evaluator
// through the batch runtime at worker counts 1 and 8 and requires both to
// match the reference evaluator's points bit for bit.
func TestCompiledBatchWorkerEquivalence(t *testing.T) {
	problem := wardProblem(t)
	compiled, err := problem.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	configs := make([]dse.Config, 256)
	for i := range configs {
		configs[i] = problem.Space().Random(rng)
	}
	want := dse.NewParallelEvaluator(problem.Evaluator(), 1).EvaluateBatch(configs)
	for _, workers := range []int{1, 8} {
		got := dse.NewParallelEvaluator(compiled.Evaluator(), workers).EvaluateBatch(configs)
		for i := range want {
			if got[i].Feasible != want[i].Feasible {
				t.Fatalf("workers=%d: config %v feasibility %v, want %v",
					workers, configs[i], got[i].Feasible, want[i].Feasible)
			}
			if want[i].Feasible {
				sameObjs(t, "batch", configs[i], got[i].Objs, want[i].Objs)
			}
		}
	}
}

// TestCompiledZeroAllocs: a forked compiled case-study instance evaluating
// into caller scratch allocates nothing in steady state.
func TestCompiledZeroAllocs(t *testing.T) {
	problem := wardProblem(t)
	compiled, err := problem.Compile()
	if err != nil {
		t.Fatal(err)
	}
	eval := compiled.Evaluator().(dse.Forkable).Fork().(dse.IntoEvaluator)

	rng := rand.New(rand.NewSource(1))
	var cfg dse.Config
	for i := 0; ; i++ {
		c := problem.Space().Random(rng)
		if _, err := eval.Evaluate(c); err == nil {
			cfg = c
			break
		}
		if i > 20000 {
			t.Fatal("no feasible case-study configuration found")
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
		t.Fatalf("compiled EvaluateInto allocates %.1f objects per call in steady state, want 0", allocs)
	}
}

// TestCompiledSearchEquivalence runs one seeded NSGA-II search of the case
// study on the reference and the compiled evaluator: identical counts and
// bitwise-identical fronts prove the compiled pipeline is a drop-in
// replacement for the search algorithms.
func TestCompiledSearchEquivalence(t *testing.T) {
	problem := wardProblem(t)
	compiled, err := problem.Compile()
	if err != nil {
		t.Fatal(err)
	}
	search := dse.Search{Algorithm: "nsga2", Seed: 3, Workers: 4,
		NSGA2: &dse.NSGA2Config{PopulationSize: 16, Generations: 6}}
	want, err := search.Run(problem.Space(), problem.Evaluator(), dse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := search.Run(problem.Space(), compiled.Evaluator(), dse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated != want.Evaluated || got.Infeasible != want.Infeasible {
		t.Fatalf("counts differ: (%d,%d) vs (%d,%d)",
			got.Evaluated, got.Infeasible, want.Evaluated, want.Infeasible)
	}
	if len(got.Front) != len(want.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(got.Front), len(want.Front))
	}
	for i := range want.Front {
		sameObjs(t, "front", want.Front[i].Config, got.Front[i].Objs, want.Front[i].Objs)
	}
}
