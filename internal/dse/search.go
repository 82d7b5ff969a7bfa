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

// ExhaustiveOpts enumerates a space of at most maxPoints points (a guard
// against accidental 10¹¹-point sweeps) in batches across the worker pool
// (workers <= 0 selects GOMAXPROCS), with identical results at any worker
// count. Each batch, the last partial one included, ends at a boundary
// where Options hook in; snapshots record how far the enumeration got
// (Snapshot.Next), so a resumed sweep skips exactly the consumed prefix.
func ExhaustiveOpts(space *Space, eval Evaluator, maxPoints, workers int, opts Options) (*Result, error) {
	if size := space.Size(); size > float64(maxPoints) {
		return nil, fmt.Errorf("dse: space has %.3g points, exhaustive limit is %d", size, maxPoints)
	}
	total := int(space.Size())
	rs, err := begin(Search{Algorithm: "exhaustive", MaxPoints: maxPoints}, space, eval, workers, batches(total), opts)
	if err != nil {
		return nil, err
	}
	defer rs.pool.stop()
	var arch Archive
	// cursor is the next configuration in Space.Iterate's order, next its
	// index.
	cursor, next := make(Config, len(space.Params)), 0
	if snap := opts.Resume; snap != nil {
		rs.restore(&arch, snap.Archive)
		for ; next < snap.Next; next++ {
			space.advance(cursor)
		}
	}
	bufs := geneBuffers(min(total, exhaustiveBatch), len(space.Params))
	var points []Point
	return rs.loop(func(int) {
		batch := bufs[:min(len(bufs), total-next)]
		for _, c := range batch {
			copy(c, cursor)
			space.advance(cursor)
		}
		next += len(batch)
		points = rs.evaluate(batch, points)
		arch.AddBatch(points)
	}, arch.Points, func(snap *Snapshot) { snap.Next, snap.Archive = next, snapPoints(arch.Points()) })
}

// RandomSearchOpts evaluates `budget` uniform random configurations, the
// reference any metaheuristic must beat, drawn from one seeded stream in
// batches across the worker pool (workers <= 0 selects GOMAXPROCS), with
// identical results at any worker count; revisits hit the memo cache, so
// Evaluated counts distinct points. Options hook in at batch boundaries;
// snapshots record the RNG state and draws consumed, so a resumed search
// continues the identical draw stream.
func RandomSearchOpts(space *Space, eval Evaluator, budget int, seed int64, workers int, opts Options) (*Result, error) {
	if budget < 1 {
		return nil, fmt.Errorf("dse: budget %d must be positive", budget)
	}
	rs, err := begin(Search{Algorithm: "random", Budget: budget}, space, eval, workers, batches(budget), opts)
	if err != nil {
		return nil, err
	}
	defer rs.pool.stop()
	rng, src := newSearchRand(seed)
	var arch Archive
	drawn := 0
	if snap := opts.Resume; snap != nil {
		rs.restore(&arch, snap.Archive)
		drawn, src.state = snap.Next, snap.RNG
	}
	bufs := geneBuffers(min(budget, exhaustiveBatch), len(space.Params))
	var points []Point
	return rs.loop(func(int) {
		configs := bufs[:min(len(bufs), budget-drawn)]
		for _, c := range configs {
			space.RandomInto(rng, c)
		}
		drawn += len(configs)
		points = rs.evaluate(configs, points)
		arch.AddBatch(points)
	}, arch.Points, func(snap *Snapshot) {
		snap.RNG, snap.Next, snap.Archive = src.state, drawn, snapPoints(arch.Points())
	})
}
