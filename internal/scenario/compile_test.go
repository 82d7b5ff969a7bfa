package scenario

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/core"
	"wsndse/internal/dse"
	"wsndse/internal/units"
)

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

// TestCompileRejectsUnservableStream: a node whose stream needs more GTS
// slots than the k table holds fails Compile with an error naming it,
// rather than storing a truncated k, and the reference evaluator rejects
// the nominal point on Eq. 2's capacity.
func TestCompileRejectsUnservableStream(t *testing.T) {
	// 1e13 Hz needs about 3·10⁹ slots at SFO gap 0; at 1e300 Hz the slot
	// count saturates at 2^53 rather than wrapping around to one slot.
	for _, fs := range []units.Hertz{1e13, 1e18, 1e300} {
		sc := ECGWard()
		sc.Nodes[4].SampleFreq = fs
		problem, err := NewProblem(sc, casestudy.DefaultCalibration())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := problem.Compile(); err == nil || !strings.Contains(err.Error(), sc.Nodes[4].Name) {
			t.Fatalf("%g Hz: Compile = %v, want an error naming node %s", fs, err, sc.Nodes[4].Name)
		}
		var ie *core.InfeasibleError
		if _, err := problem.Evaluator().Evaluate(problem.NominalConfig()); !errors.As(err, &ie) || ie.Code != core.CodeCapacity {
			t.Fatalf("%g Hz: reference evaluation of the nominal point = %v, want a capacity error", fs, err)
		}
	}
}
