package scenario

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"wsndse/internal/casestudy"
	"wsndse/internal/core"
	"wsndse/internal/dse"
)

// compiledWard compiles the ecg-ward problem, the workload of the
// benchmark's ward-explore jobs.
func compiledWard(t *testing.T) (*Problem, *Compiled) {
	t.Helper()
	p, err := NewProblem(ECGWard(), casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p, c
}

// wardSearch is a ward-explore job's search at the given size.
func wardSearch(gens, workers int) dse.Search {
	return dse.Search{Algorithm: "nsga2", Seed: 1, Workers: workers,
		NSGA2: &dse.NSGA2Config{PopulationSize: 256, Generations: gens}}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestInfeasibleEvalSteadyStateAllocs pins the typed constraint errors:
// an infeasible compiled ecg-ward evaluation allocates at most its one
// *core.InfeasibleError, for every kind of violation the space holds.
// Formatting the message at construction would cost five to eight.
func TestInfeasibleEvalSteadyStateAllocs(t *testing.T) {
	p, compiled := compiledWard(t)
	eval := compiled.Evaluator().(dse.Forkable).Fork().(dse.IntoEvaluator)
	objs := make(dse.Objectives, 3)
	byCode := map[core.InfeasibleCode]dse.Config{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		c := p.Space().Random(rng)
		var ie *core.InfeasibleError
		if err := eval.EvaluateInto(c, objs); errors.As(err, &ie) && byCode[ie.Code] == nil {
			byCode[ie.Code] = c
		}
	}
	if len(byCode) == 0 {
		t.Fatal("no infeasible ecg-ward configuration found")
	}
	for code, c := range byCode {
		allocs := testing.AllocsPerRun(500, func() {
			if err := eval.EvaluateInto(c, objs); err == nil {
				t.Fatal("configuration turned feasible")
			}
		})
		if allocs > 1 {
			t.Errorf("infeasible evaluation (code %d) allocates %.1f objects, want at most 1", code, allocs)
		}
	}
}

// TestWardSearchSteadyStateAllocs is the allocation gate of the evaluation
// rung: a whole ward-explore search allocates at most one object per
// infeasible evaluation (its error) plus 0.15 per distinct evaluation.
// Heap objects per memo entry (entry, config clone, done channel,
// objective slice) and a copied Stats front would cost about 5.4 per
// evaluation.
func TestWardSearchSteadyStateAllocs(t *testing.T) {
	p, compiled := compiledWard(t)
	for _, workers := range []int{1, 2} {
		eval := compiled.Evaluator()
		m0 := mallocs()
		res, err := wardSearch(120, workers).Run(p.Space(), eval, dse.Options{Stats: func(dse.Stats) {}})
		allocs := mallocs() - m0
		if err != nil {
			t.Fatal(err)
		}
		limit := float64(res.Infeasible) + 0.15*float64(res.Evaluated)
		t.Logf("workers %d: %d allocations for %d evaluations (%d infeasible), limit %.0f",
			workers, allocs, res.Evaluated, res.Infeasible, limit)
		if float64(allocs) > limit {
			t.Errorf("workers %d: search allocates %d objects, want at most %.0f", workers, allocs, limit)
		}
	}
}

// TestRandomSearchSteadyStateAllocs is the random-search twin of the gate
// above: an ecg-ward random search allocates at most one object per
// infeasible evaluation plus 0.15 per distinct evaluation. A configuration
// allocated per draw would cost one more per draw.
func TestRandomSearchSteadyStateAllocs(t *testing.T) {
	p, compiled := compiledWard(t)
	for _, workers := range []int{1, 2} {
		eval := compiled.Evaluator()
		m0 := mallocs()
		res, err := dse.Search{Algorithm: "random", Seed: 1, Workers: workers, Budget: 20000}.Run(p.Space(), eval, dse.Options{})
		allocs := mallocs() - m0
		if err != nil {
			t.Fatal(err)
		}
		limit := float64(res.Infeasible) + 0.15*float64(res.Evaluated)
		t.Logf("workers %d: %d allocations for %d evaluations (%d infeasible), limit %.0f",
			workers, allocs, res.Evaluated, res.Infeasible, limit)
		if float64(allocs) > limit {
			t.Errorf("workers %d: random search allocates %d objects, want at most %.0f", workers, allocs, limit)
		}
	}
}

// liveHeap is the heap still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSearchResultRetainedHeap guards the front copy at the end of a run:
// memo points alias arena chunks that hold every evaluated configuration,
// so a Result whose front kept them would pin the whole memo (13 times the
// front's compact size here). A kept Result may hold at most three times
// that size.
func TestSearchResultRetainedHeap(t *testing.T) {
	p, compiled := compiledWard(t)
	var points int
	var compact uintptr
	with := func() uint64 {
		res, err := wardSearch(30, 2).Run(p.Space(), compiled.Evaluator(), dse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		heap := liveHeap()
		points = len(res.Front)
		for _, pt := range res.Front {
			compact += unsafe.Sizeof(pt) + 8*uintptr(len(pt.Config)+len(pt.Objs))
		}
		runtime.KeepAlive(res)
		return heap
	}()
	retained := int64(with) - int64(liveHeap())
	t.Logf("%d front points: %d B retained, %d B compact", points, retained, compact)
	if points == 0 {
		t.Fatal("empty front")
	}
	if retained > 3*int64(compact) {
		t.Errorf("a kept Result retains %d B, want at most 3 × %d B", retained, compact)
	}
	runtime.KeepAlive(compiled)
}

// TestWardSearchMemoRetainedHeap bounds what a ward-explore search keeps
// alive per distinct configuration it has evaluated: read at the final
// boundary, the live heap above the heap before the search may be at most
// 128 B per distinct evaluation. The memo keeps one byte per gene beside
// the objectives; a full copy of every configuration (15 eight-byte genes)
// would read about 218 B.
func TestWardSearchMemoRetainedHeap(t *testing.T) {
	p, compiled := compiledWard(t)
	for _, workers := range []int{1, 2} {
		eval := compiled.Evaluator()
		var live uint64
		var evaluated int
		opts := dse.Options{Stats: func(s dse.Stats) {
			if s.Step == s.TotalSteps {
				live, evaluated = liveHeap(), s.Evaluated
			}
		}}
		base := liveHeap()
		if _, err := wardSearch(120, workers).Run(p.Space(), eval, opts); err != nil {
			t.Fatal(err)
		}
		perEval := float64(int64(live)-int64(base)) / float64(evaluated)
		t.Logf("workers %d: %d B live above the heap before the search, %d distinct evaluations: %.1f B each",
			workers, int64(live)-int64(base), evaluated, perEval)
		if evaluated == 0 || perEval > 128 {
			t.Errorf("workers %d: a search keeps %.1f B per distinct evaluation, want at most 128", workers, perEval)
		}
	}
	runtime.KeepAlive(compiled)
}
