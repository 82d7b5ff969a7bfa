package dse

import (
	"math"
	"sort"
)

// Objectives is a vector of objective values, all minimized.
type Objectives []float64

// Evaluator maps configurations to objective vectors. Implementations
// return an error satisfying core.IsInfeasible semantics (any error is
// treated as a constraint violation by the search algorithms; hard
// evaluator bugs should panic instead).
type Evaluator interface {
	Evaluate(c Config) (Objectives, error)
	NumObjectives() int
}

// Point is an evaluated design point. Objs is empty for an infeasible
// point: constraint violations carry no objective vector. Snapshots,
// migrants and island fronts carry points in this JSON form.
type Point struct {
	Config   Config     `json:"config"`
	Objs     Objectives `json:"objs,omitempty"`
	Feasible bool       `json:"feasible"`
}

// clone deep-copies the point's Config and Objs storage, so the copy
// stays valid while its source keeps reusing its buffers.
func (p Point) clone() Point {
	return Point{Config: p.Config.Clone(), Objs: append(Objectives(nil), p.Objs...), Feasible: p.Feasible}
}

// clonePoints deep-copies points; nil stays nil.
func clonePoints(ps []Point) []Point {
	if ps == nil {
		return nil
	}
	out := make([]Point, len(ps))
	for i, p := range ps {
		out[i] = p.clone()
	}
	return out
}

// Dominates reports whether a Pareto-dominates b: no worse in every
// objective and strictly better in at least one. Both vectors must have
// equal length.
func Dominates(a, b Objectives) bool {
	better := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			better = true
		}
	}
	return better
}

// dominatesConstrained applies Deb's constrained dominance: feasible beats
// infeasible; two feasibles compare by Pareto dominance; two infeasibles
// are incomparable (the evaluator provides no violation magnitude).
func dominatesConstrained(a, b Point) bool {
	switch {
	case a.Feasible && !b.Feasible:
		return true
	case !a.Feasible:
		return false
	default:
		return Dominates(a.Objs, b.Objs)
	}
}

func equalObjs(a, b Objectives) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Archive maintains a non-dominated set, stored sorted by lexicographic
// objective order. Sortedness is what makes maintenance cheap: only
// lexicographic predecessors can dominate a candidate and only successors
// can be dominated by it. Add inserts one point — O(log N + k) for k
// evictions with two objectives, one pruned scan per side otherwise —
// and suits a caller that adds one point at a time. AddBatch folds a
// whole batch in with one sorted merge and one staircase sweep (see
// sortfast.go): with at most three objectives, a binary search per
// merged point instead of an archive scan per batch point, and the same
// result as one Add per batch point.
//
// The archive owns the genes of the points it keeps: Add and AddBatch
// copy each kept point's Config into a buffer of the archive's, so the
// caller may reuse its slices (the batch runtime hands back the caller's
// own). An evicted point's buffer goes onto a free list, and new buffers
// come in slabs of archiveSlab, so a steady-state archive allocates
// nothing. Objectives are not copied: they stay the caller's (the memo's
// objective arena, for the searches).
type Archive struct {
	points []Point
	spare  []Point // AddBatch's merge target; swaps with points
	order  []int   // AddBatch's feasible batch indices, lex-sorted
	stair  staircase
	free   []Config // gene buffers of evicted points
}

// archiveSlab is how many gene buffers an Archive allocates at a time.
const archiveSlab = 32

// own copies c into a buffer of the archive's: a freed one when one is
// long enough, else a fresh slab.
func (a *Archive) own(c Config) Config {
	if c == nil {
		return nil
	}
	if n := len(a.free); n == 0 || cap(a.free[n-1]) < len(c) {
		a.free = append(a.free, geneBuffers(archiveSlab, len(c))...)
	}
	n := len(a.free) - 1
	buf := a.free[n][:len(c)]
	a.free = a.free[:n]
	copy(buf, c)
	return buf
}

// release returns the gene buffer of an evicted point to the free list.
func (a *Archive) release(p Point) {
	if p.Config != nil {
		a.free = append(a.free, p.Config)
	}
}

// reset empties the archive, keeping every gene buffer for reuse.
func (a *Archive) reset() {
	for _, p := range a.points {
		a.release(p)
	}
	a.points = a.points[:0]
}

// Add inserts p if no archived point dominates it, evicting points it
// dominates. A point whose objective vector already sits in the archive is
// rejected (the first occurrence wins). It reports whether p was inserted;
// an inserted point's genes are copied, so p.Config stays the caller's.
func (a *Archive) Add(p Point) bool {
	if !p.Feasible {
		return false
	}
	i, dup := a.search(p.Objs)
	if dup {
		return false
	}
	if len(p.Objs) == 2 {
		// Mutual non-dominance plus lex order force the first objective
		// strictly increasing and the second strictly decreasing, so the
		// predecessor carries the minimum f2 left of p: an O(1) dominance
		// check.
		if i > 0 && a.points[i-1].Objs[1] <= p.Objs[1] {
			return false
		}
	} else {
		// A lexicographic successor can never dominate p, so dominators
		// live strictly left of i.
		for k := 0; k < i; k++ {
			if Dominates(a.points[k].Objs, p.Objs) {
				return false
			}
		}
	}
	a.insertAt(i, p)
	return true
}

// addCounting is Add for a feasible p whose caller also needs how many
// archived points dominate p (MOSA's acceptance energy): it counts them
// over p's lexicographic predecessors, the only points that can dominate
// p, and inserts p only when the count is 0 and its objective vector is
// new. The count is the one a scan of the archive after Add would find:
// an inserted point, or one whose objective vector is already archived,
// has no dominator, and a rejected one leaves the archive unchanged.
func (a *Archive) addCounting(p Point) int {
	i, dup := a.search(p.Objs)
	if dup {
		return 0
	}
	dominators := 0
	for k := 0; k < i; k++ {
		if Dominates(a.points[k].Objs, p.Objs) {
			dominators++
		}
	}
	if dominators == 0 {
		a.insertAt(i, p)
	}
	return dominators
}

// search returns the first index whose objectives are lexicographically
// >= objs, and whether the point there has objs exactly.
func (a *Archive) search(objs Objectives) (int, bool) {
	n := len(a.points)
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lexLessObjs(a.points[mid].Objs, objs) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < n && equalObjs(a.points[lo].Objs, objs)
}

// insertAt inserts p, which no archived point dominates, at its
// lexicographic position i, evicting the points it dominates.
func (a *Archive) insertAt(i int, p Point) {
	n := len(a.points)
	if len(p.Objs) == 2 {
		// p's victims are a contiguous run after it (see Add).
		j := i
		for j < n && a.points[j].Objs[1] >= p.Objs[1] {
			a.release(a.points[j])
			j++
		}
		switch {
		case j == i: // nobody evicted: open a slot
			a.points = append(a.points, Point{})
			copy(a.points[i+1:], a.points[i:])
		case j > i+1: // several evicted: close the gap
			a.points = append(a.points[:i+1], a.points[j:]...)
		}
		a.points[i] = Point{Config: a.own(p.Config), Objs: p.Objs, Feasible: true}
		return
	}
	// M >= 3: a predecessor can never be dominated by p, so victims live
	// strictly right of i.
	w := i
	for k := i; k < n; k++ {
		if Dominates(p.Objs, a.points[k].Objs) {
			a.release(a.points[k])
			continue
		}
		a.points[w] = a.points[k]
		w++
	}
	a.points = append(a.points[:w], Point{})
	copy(a.points[i+1:], a.points[i:])
	a.points[i] = Point{Config: a.own(p.Config), Objs: p.Objs, Feasible: true}
}

// AddBatch adds ps with the result of len(ps) calls to Add in order:
// the same points, keeping the first occurrence of each objective vector,
// in lexicographic order. It lex-sorts the feasible points of the batch
// (ties by batch position) and folds them in with addSorted. As with Add,
// the genes of every batch point kept are copied.
func (a *Archive) AddBatch(ps []Point) {
	a.order = a.order[:0]
	for i := range ps {
		if ps[i].Feasible {
			a.order = append(a.order, i)
		}
	}
	if len(a.order) > 0 && len(ps[a.order[0]].Objs) <= 3 {
		sortLex(ps, a.order)
	}
	a.addSorted(ps, a.order)
}

// addSorted is AddBatch for a caller that has sorted the batch already:
// order holds the indices of ps's feasible points in lexicographic order,
// ties by index, as sortLex leaves them. It merges them with the archive
// (archived points first among equal vectors) and keeps each merged point
// that no kept point dominates or equals — one staircase query over
// (f2, f3). That is exact because the archive is the first-occurrence
// non-dominated set of everything fed to it and dominance is transitive.
// Vectors of four or more objectives are added one by one, in batch
// order. addSorted only reads order and ps.
func (a *Archive) addSorted(ps []Point, order []int) {
	if len(order) == 0 {
		return
	}
	if len(ps[order[0]].Objs) > 3 {
		for i := range ps {
			if ps[i].Feasible {
				a.Add(ps[i])
			}
		}
		return
	}

	out := a.spare[:0]
	a.stair = a.stair[:0]
	arch, batch := a.points, order
	for len(arch) > 0 || len(batch) > 0 {
		var p Point
		archived := len(batch) == 0 || len(arch) > 0 && !lexLessObjs(ps[batch[0]].Objs, arch[0].Objs)
		if archived {
			p, arch = arch[0], arch[1:]
		} else {
			p, batch = ps[batch[0]], batch[1:]
		}
		y, z := stairKey(p.Objs)
		if a.stair.covers(y, z) {
			if archived {
				a.release(p)
			}
			continue
		}
		a.stair.insert(y, z)
		if !archived {
			p.Config = a.own(p.Config)
		}
		out = append(out, p)
	}
	a.points, a.spare = out, a.points
}

// lexLessObjs compares objective vectors lexicographically.
func lexLessObjs(x, y Objectives) bool {
	for i := range x {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// Points returns the archived front in lexicographic objective order. The
// slice is the archive's own storage: callers must not modify it, and the
// next Add or AddBatch may overwrite it, the genes of its points included,
// since the archive recycles an evicted point's gene buffer. The sorted order is part of the
// determinism story: the archived set never depends on insertion order,
// and neither does its presentation.
func (a *Archive) Points() []Point { return a.points }

// Len returns the archive size.
func (a *Archive) Len() int { return len(a.points) }

// CrowdingDistance computes the NSGA-II crowding distance of each point in
// a front. Boundary points get +Inf. The per-objective orderings break
// value ties by front position, so the result is a deterministic function
// of the front even when objective vectors repeat.
func CrowdingDistance(front []Point) []float64 {
	dist := make([]float64, len(front))
	crowdingInto(front, dist, make([]crowdKey, len(front)), nil)
	return dist
}

// Hypervolume computes the dominated hypervolume of a front with respect
// to a reference point (which every front point must weakly dominate).
// Supported dimensions: 2 and 3, covering the paper's tradeoff plots.
func Hypervolume(front []Point, ref Objectives) float64 {
	pts := make([]Objectives, 0, len(front))
	for _, p := range front {
		inside := true
		for i := range ref {
			if p.Objs[i] > ref[i] {
				inside = false
				break
			}
		}
		if inside {
			pts = append(pts, p.Objs)
		}
	}
	if len(pts) == 0 {
		return 0
	}
	switch len(ref) {
	case 2:
		return hv2(pts, ref)
	case 3:
		return hv3(pts, ref)
	default:
		panic("dse: Hypervolume supports 2 or 3 objectives")
	}
}

// hv2 sweeps points by the first objective.
func hv2(pts []Objectives, ref Objectives) float64 {
	sort.Slice(pts, func(a, b int) bool { return lessXY(pts[a], pts[b]) })
	return sweepXY(pts, ref)
}

// lessXY is hv2's order: first objective, then second.
func lessXY(p, q Objectives) bool {
	if p[0] != q[0] {
		return p[0] < q[0]
	}
	return p[1] < q[1]
}

// sweepXY is the area the first two objectives of pts dominate below
// (ref[0], ref[1]); pts must be in lessXY order.
func sweepXY(pts []Objectives, ref Objectives) float64 {
	var hv float64
	bestY := ref[1]
	for _, p := range pts {
		if p[1] < bestY {
			hv += (ref[0] - p[0]) * (bestY - p[1])
			bestY = p[1]
		}
	}
	return hv
}

// hv3 slices along the third objective: between consecutive z values the
// dominated volume is the 2-D hypervolume of the points with z below the
// slice times the slice's depth. The points below the slice are kept in
// hv2's order by binary insertion, so each slice is one sweep, with the
// same products summed in the same order as hv2 would.
func hv3(pts []Objectives, ref Objectives) float64 {
	sort.Slice(pts, func(a, b int) bool { return pts[a][2] < pts[b][2] })
	below := make([]Objectives, 0, len(pts))
	var hv float64
	for i, p := range pts {
		k := sort.Search(len(below), func(j int) bool { return !lessXY(below[j], p) })
		below = append(below, nil)
		copy(below[k+1:], below[k:])
		below[k] = p
		zTop := ref[2]
		if i+1 < len(pts) {
			zTop = pts[i+1][2]
		}
		dz := zTop - p[2]
		if dz <= 0 {
			continue
		}
		hv += sweepXY(below, ref) * dz
	}
	return hv
}

// Coverage returns the fraction of points in b that are weakly dominated
// by (or equal to) some point of a — Zitzler's C(A, B) metric, used for
// the Fig. 5 claim that the two-objective baseline covers only a small
// fraction of the full model's tradeoffs.
func Coverage(a, b []Point) float64 {
	if len(b) == 0 {
		return 0
	}
	covered := 0
	for _, q := range b {
		for _, p := range a {
			if Dominates(p.Objs, q.Objs) || equalObjs(p.Objs, q.Objs) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(b))
}

// BalancedPoint returns the front point minimizing the normalized
// euclidean distance to the per-objective minima — the "decent everything"
// pick a deployment would make from a Pareto front. Ties resolve to the
// earliest point, so the choice is deterministic for a deterministic
// front. It panics on an empty front.
func BalancedPoint(front []Point) Point {
	if len(front) == 0 {
		panic("dse: BalancedPoint on empty front")
	}
	m := len(front[0].Objs)
	lo := append([]float64(nil), front[0].Objs...)
	hi := append([]float64(nil), front[0].Objs...)
	for _, p := range front {
		for j, o := range p.Objs {
			if o < lo[j] {
				lo[j] = o
			}
			if o > hi[j] {
				hi[j] = o
			}
		}
	}
	best, bestD := 0, math.Inf(1)
	for i, p := range front {
		var d float64
		for j := 0; j < m && j < len(p.Objs); j++ {
			if hi[j] == lo[j] {
				continue
			}
			n := (p.Objs[j] - lo[j]) / (hi[j] - lo[j])
			d += n * n
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return front[best]
}
