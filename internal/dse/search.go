package dse

import (
	"fmt"
)

// Result is the outcome of a search: the non-dominated front over every
// feasible point the algorithm evaluated, plus bookkeeping.
type Result struct {
	Front      []Point
	Evaluated  int // distinct configurations evaluated
	Infeasible int // of those, how many violated constraints
}

// exhaustiveBatch is how many configurations Exhaustive hands to the
// worker pool at a time: large enough to amortize dispatch, small enough
// that the archive merge interleaves with evaluation.
const exhaustiveBatch = 1024

// Exhaustive enumerates the whole space on a single worker. It refuses
// spaces larger than maxPoints to protect callers from accidental
// 10¹¹-point sweeps.
func Exhaustive(space *Space, eval Evaluator, maxPoints int) (*Result, error) {
	return ExhaustiveParallel(space, eval, maxPoints, 1)
}

// ExhaustiveParallel enumerates the whole space, evaluating batches of
// configurations across the worker pool (workers <= 0 selects GOMAXPROCS).
// Enumeration order, the resulting front, and the counts are identical at
// any worker count.
func ExhaustiveParallel(space *Space, eval Evaluator, maxPoints, workers int) (*Result, error) {
	return ExhaustiveOpts(space, eval, maxPoints, workers, Options{})
}

// ExhaustiveOpts is ExhaustiveParallel under run Options: progress,
// checkpointing and cancellation hook in at batch boundaries (every
// exhaustiveBatch configurations). Snapshots record how far the
// lexicographic enumeration got (Snapshot.Next), so a resumed sweep skips
// exactly the consumed prefix. On cancellation the partial Result is
// returned together with ctx.Err().
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
	totalBatches := (total + exhaustiveBatch - 1) / exhaustiveBatch
	skip := 0
	var baseEval, baseInf int
	if opts.Resume != nil {
		if err := opts.Resume.validateResume("exhaustive", space, pe.NumObjectives()); err != nil {
			return nil, err
		}
		if opts.Resume.Next > total {
			return nil, fmt.Errorf("dse: snapshot consumed %d of %d points", opts.Resume.Next, total)
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
		return &Result{Front: arch.Points(), Evaluated: baseEval + evaluated, Infeasible: baseInf + infeasible}
	}
	batch := make([]Config, 0, exhaustiveBatch)
	flush := func() {
		arch.AddBatch(pe.EvaluateBatchInto(batch, nil))
		batch = batch[:0]
	}
	idx := 0
	var stopErr error
	space.Iterate(func(c Config) bool {
		if idx < skip {
			idx++
			return true
		}
		idx++
		batch = append(batch, c.Clone())
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

// RandomSearch evaluates `budget` uniform random configurations on a single
// worker — the reference any metaheuristic must beat.
func RandomSearch(space *Space, eval Evaluator, budget int, seed int64) (*Result, error) {
	return RandomSearchParallel(space, eval, budget, seed, 1)
}

// RandomSearchParallel draws the budget from one seeded stream in batches
// of exhaustiveBatch and evaluates each batch across the worker pool
// (workers <= 0 selects GOMAXPROCS). The draw sequence, front, and counts
// are identical at any worker count; revisited configurations are
// deduplicated by the memo cache so Evaluated means distinct points.
func RandomSearchParallel(space *Space, eval Evaluator, budget int, seed int64, workers int) (*Result, error) {
	return RandomSearchOpts(space, eval, budget, seed, workers, Options{})
}

// RandomSearchOpts is RandomSearchParallel under run Options: progress,
// checkpointing and cancellation hook in at batch boundaries. Snapshots
// record the RNG state and draws consumed, so a resumed search continues
// the identical draw stream. On cancellation the partial Result is
// returned together with ctx.Err().
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
		if err := opts.Resume.validateResume("random", space, pe.NumObjectives()); err != nil {
			return nil, err
		}
		if opts.Resume.Next > budget {
			return nil, fmt.Errorf("dse: snapshot consumed %d of %d draws", opts.Resume.Next, budget)
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
		return &Result{Front: arch.Points(), Evaluated: baseEval + evaluated, Infeasible: baseInf + infeasible}
	}
	totalBatches := (budget + exhaustiveBatch - 1) / exhaustiveBatch
	configs := make([]Config, 0, exhaustiveBatch)
	var points []Point
	for drawn < budget {
		n := exhaustiveBatch
		if budget-drawn < n {
			n = budget - drawn
		}
		configs = configs[:0]
		for i := 0; i < n; i++ {
			configs = append(configs, space.Random(rng))
		}
		drawn += n
		points = pe.EvaluateBatchInto(configs, points)
		arch.AddBatch(points)
		step := (drawn + exhaustiveBatch - 1) / exhaustiveBatch
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
