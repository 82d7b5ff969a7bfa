package dse

import (
	"fmt"
)

// Result is the outcome of a search: the non-dominated front over every
// feasible point the algorithm evaluated, plus bookkeeping. Front is
// storage of its own, not the memo's: a kept Result keeps only its front
// alive.
type Result struct {
	Front      []Point
	Evaluated  int // distinct configurations evaluated
	Infeasible int // of those, how many violated constraints
}

// detach copies points into three blocks of their own (points, genes,
// objectives). An archive's points keep their genes in the archive's gene
// slabs and their objectives in the memo's objective arena, so a front
// that outlives its run would otherwise pin the objectives of every
// configuration the run evaluated.
func detach(ps []Point) []Point {
	if len(ps) == 0 {
		return ps
	}
	genes, objs := 0, 0
	for _, p := range ps {
		genes += len(p.Config)
		objs += len(p.Objs)
	}
	out := make([]Point, len(ps))
	g := make(Config, genes)
	o := make(Objectives, objs)
	for i, p := range ps {
		n, m := copy(g, p.Config), copy(o, p.Objs)
		out[i] = Point{Config: g[:n:n], Objs: o[:m:m], Feasible: p.Feasible}
		g, o = g[n:], o[m:]
	}
	return out
}

// exhaustiveBatch is how many configurations exhaustive and random
// search hand to the worker pool at a time: large enough to amortize
// dispatch, small enough that the archive merge interleaves with
// evaluation. Both reuse one batch of gene buffers throughout, since the
// archive copies the genes it keeps.
const exhaustiveBatch = 1024

// batches returns how many exhaustiveBatch-sized batches hold n
// configurations.
func batches(n int) int {
	return (n + exhaustiveBatch - 1) / exhaustiveBatch
}

// ExhaustiveOpts enumerates a space of at most maxPoints points (a guard
// against accidental 10¹¹-point sweeps) in batches across the worker pool
// (workers <= 0 selects GOMAXPROCS), with identical results at any worker
// count. Options hook in at batch
// boundaries; snapshots record how far the lexicographic enumeration got
// (Snapshot.Next), so a resumed sweep skips exactly the consumed prefix.
func ExhaustiveOpts(space *Space, eval Evaluator, maxPoints, workers int, opts Options) (*Result, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if size := space.Size(); size > float64(maxPoints) {
		return nil, fmt.Errorf("dse: space has %.3g points, exhaustive limit is %d", size, maxPoints)
	}
	pe := NewParallelEvaluator(eval, workers)
	var arch Archive
	total := int(space.Size())
	totalBatches := batches(total)
	skip := 0
	var baseEval, baseInf int
	if opts.Resume != nil {
		if err := (Search{Algorithm: "exhaustive"}).ValidateResume(opts.Resume, space, pe.NumObjectives()); err != nil {
			return nil, err
		}
		skip = opts.Resume.Next
		baseEval, baseInf = opts.Resume.Evaluated, opts.Resume.Infeasible
		restoreArchive(&arch, opts.Resume.Archive)
		for _, p := range arch.Points() {
			pe.prime(p)
		}
	}
	result := func() *Result {
		evaluated, infeasible := pe.Stats()
		return &Result{Front: detach(arch.Points()), Evaluated: baseEval + evaluated, Infeasible: baseInf + infeasible}
	}
	bufs := geneBuffers(min(total, exhaustiveBatch), len(space.Params))
	batch := bufs[:0]
	var points []Point
	flush := func() {
		points = pe.EvaluateBatchInto(batch, points)
		arch.AddBatch(points)
		batch = bufs[:0]
	}
	idx := 0
	var stopErr error
	space.Iterate(func(c Config) bool {
		if idx < skip {
			idx++
			return true
		}
		idx++
		batch = batch[:len(batch)+1]
		copy(batch[len(batch)-1], c)
		if len(batch) == exhaustiveBatch {
			flush()
			step := idx / exhaustiveBatch
			evaluated, infeasible := pe.Stats()
			consumed := idx
			stopErr = opts.boundary("exhaustive", step, totalBatches, baseEval+evaluated, baseInf+infeasible,
				pe, func() []Point { return arch.Points() },
				func() *Snapshot {
					return &Snapshot{
						Version: SnapshotVersion, Algorithm: "exhaustive", Step: step, Next: consumed,
						Archive: snapPoints(arch.Points()), Evaluated: baseEval + evaluated, Infeasible: baseInf + infeasible,
					}
				})
			return stopErr == nil
		}
		return true
	})
	if stopErr != nil {
		return result(), stopErr
	}
	flush()
	return result(), nil
}

// RandomSearchOpts evaluates `budget` uniform random configurations, the
// reference any metaheuristic must beat, drawn from one seeded stream in
// batches across the worker pool (workers <= 0 selects GOMAXPROCS), with
// identical results at any worker count; revisits hit the memo cache, so
// Evaluated counts distinct points. Options hook in at batch boundaries;
// snapshots record the RNG state and draws consumed, so a resumed search
// continues the identical draw stream.
func RandomSearchOpts(space *Space, eval Evaluator, budget int, seed int64, workers int, opts Options) (*Result, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if budget < 1 {
		return nil, fmt.Errorf("dse: budget %d must be positive", budget)
	}
	rng, src := newSearchRand(seed)
	pe := NewParallelEvaluator(eval, workers)
	var arch Archive
	drawn := 0
	var baseEval, baseInf int
	if opts.Resume != nil {
		if err := (Search{Algorithm: "random", Budget: budget}).ValidateResume(opts.Resume, space, pe.NumObjectives()); err != nil {
			return nil, err
		}
		drawn = opts.Resume.Next
		baseEval, baseInf = opts.Resume.Evaluated, opts.Resume.Infeasible
		restoreArchive(&arch, opts.Resume.Archive)
		for _, p := range arch.Points() {
			pe.prime(p)
		}
		src.state = opts.Resume.RNG
	}
	result := func() *Result {
		evaluated, infeasible := pe.Stats()
		return &Result{Front: detach(arch.Points()), Evaluated: baseEval + evaluated, Infeasible: baseInf + infeasible}
	}
	totalBatches := batches(budget)
	bufs := geneBuffers(min(budget, exhaustiveBatch), len(space.Params))
	var points []Point
	for drawn < budget {
		configs := bufs[:min(len(bufs), budget-drawn)]
		for _, c := range configs {
			space.RandomInto(rng, c)
		}
		drawn += len(configs)
		points = pe.EvaluateBatchInto(configs, points)
		arch.AddBatch(points)
		step := batches(drawn)
		evaluated, infeasible := pe.Stats()
		consumed := drawn
		err := opts.boundary("random", step, totalBatches, baseEval+evaluated, baseInf+infeasible,
			pe, func() []Point { return arch.Points() },
			func() *Snapshot {
				return &Snapshot{
					Version: SnapshotVersion, Algorithm: "random", Step: step, RNG: src.state, Next: consumed,
					Archive: snapPoints(arch.Points()), Evaluated: baseEval + evaluated, Infeasible: baseInf + infeasible,
				}
			})
		if err != nil {
			return result(), err
		}
	}
	return result(), nil
}
