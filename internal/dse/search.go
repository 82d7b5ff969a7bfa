package dse

import (
	"cmp"
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
// search hand to the run's evaluation pool at a time: large enough to
// amortize dispatch, small enough that the archive merge interleaves with
// evaluation. Both reuse one batch of gene buffers throughout, since the
// archive copies the genes it keeps.
const exhaustiveBatch = 1024

// batches returns how many exhaustiveBatch-sized batches hold n
// configurations.
func batches(n int) int {
	return (n + exhaustiveBatch - 1) / exhaustiveBatch
}

// runExhaustive enumerates a space of at most s.MaxPoints points (a guard
// against accidental 10¹¹-point sweeps) in Space.Iterate's order.
func runExhaustive(s Search, space *Space, eval Evaluator, opts Options) (*Result, error) {
	maxPoints := cmp.Or(s.MaxPoints, DefaultMaxPoints)
	if size := space.Size(); size > float64(maxPoints) {
		return nil, fmt.Errorf("dse: space has %.3g points, exhaustive limit is %d", size, maxPoints)
	}
	rs, err := begin(s, space, eval, opts)
	if err != nil {
		return nil, err
	}
	defer rs.pool.stop()
	// cursor is the next configuration to enumerate; a resumed sweep
	// skips the prefix its snapshot consumed.
	cursor := make(Config, len(space.Params))
	if snap := opts.Resume; snap != nil {
		for range snap.Next {
			space.advance(cursor)
		}
	}
	return runBatches(rs, space, int(space.Size()), func(c Config) {
		copy(c, cursor)
		space.advance(cursor)
	}, nil)
}

// runRandom evaluates s.Budget uniform random configurations, the
// reference any metaheuristic must beat, drawn from one stream seeded
// with s.Seed; revisits hit the memo cache, so Evaluated counts distinct
// points.
func runRandom(s Search, space *Space, eval Evaluator, opts Options) (*Result, error) {
	rs, err := begin(s, space, eval, opts)
	if err != nil {
		return nil, err
	}
	defer rs.pool.stop()
	rng, src := newSearchRand(s.Seed)
	return runBatches(rs, space, cmp.Or(s.Budget, DefaultBudget), func(c Config) {
		space.RandomInto(rng, c)
	}, src)
}

// runBatches is the loop exhaustive and random search share: it draws n
// configurations in batches of exhaustiveBatch, draw writing each next
// one into a gene buffer, and evaluates each batch on the run's pool,
// with identical results at any worker count. Each batch, the last
// partial one included, ends at a boundary where Options hook in.
// Snapshots record how many configurations were drawn (Snapshot.Next)
// and, when src is not nil, the state of the stream draw reads; a
// resumed run restores both, so it continues the identical sequence.
// The caller has moved draw past the drawn prefix.
func runBatches(rs *runState, space *Space, n int, draw func(Config), src *splitMix64) (*Result, error) {
	var arch Archive
	drawn := 0
	if snap := rs.opts.Resume; snap != nil {
		rs.restore(&arch, snap.Archive)
		drawn = snap.Next
		if src != nil {
			src.state = snap.RNG
		}
	}
	bufs := geneBuffers(min(n, exhaustiveBatch), len(space.Params))
	var points []Point
	return rs.loop(func(int) {
		batch := bufs[:min(len(bufs), n-drawn)]
		for _, c := range batch {
			draw(c)
		}
		drawn += len(batch)
		points = rs.evaluate(batch, points)
		arch.AddBatch(points)
	}, arch.Points, func(snap *Snapshot) {
		snap.Next, snap.Archive = drawn, snapPoints(arch.Points())
		if src != nil {
			snap.RNG = src.state
		}
	})
}
