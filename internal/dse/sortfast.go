package dse

import (
	"math"
	"slices"
)

// This file holds the fast non-dominated sorting machinery behind the
// NSGA-II generation loop and the Archive's batch merge. Points are
// visited in lexicographic objective order, so only an earlier point can
// dominate a later one. With at most three objectives, "does an earlier
// point of this set dominate p" becomes "does the set's (f2, f3)
// staircase hold a corner <= (p.f2, p.f3)": an O(log |F|) query instead
// of a scan of F. ENS-BS keeps one staircase per front (one corner per
// front for two objectives), so ranking N points costs O(N log N) plus
// the staircase splices; four and more objectives fall back to scanning
// each front's members. Everything runs on reusable workspace buffers,
// so steady-state generations allocate nothing.
//
// Equivalence with the O(MN²) reference implementation
// (rankAndCrowdNaive) is part of the contract, not an aspiration: both
// produce the canonical non-dominated peeling ranks under constrained
// dominance, order every front's members by ascending population index,
// and run the identical crowding arithmetic, so ranks match exactly and
// crowding distances match bit for bit. TestFastSortMatchesNaive checks
// this on randomized populations.

// testNaiveRank routes sortWorkspace.rankAndCrowd through the O(MN²)
// reference implementation. Tests flip it to prove the fast and naive
// search internals produce bit-identical NSGA-II runs.
var testNaiveRank = false

// sortLex sorts a permutation of population indices into lexicographic
// objective order, ties broken by index, so the permutation is a
// deterministic function of the population.
func sortLex(pop []Point, idx []int) {
	slices.SortFunc(idx, func(a, b int) int {
		x, y := pop[a].Objs, pop[b].Objs
		for k := range x {
			if x[k] != y[k] {
				if x[k] < y[k] {
					return -1
				}
				return 1
			}
		}
		return a - b
	})
}

// corner is one step of a staircase: the (f2, f3) projection of a point.
type corner struct{ y, z float64 }

// staircase is the 2-D non-dominated set of the (f2, f3) projections of
// points visited in lexicographic order, kept with y strictly ascending
// and z strictly descending. Every visited point is lexicographically
// smaller than the next query, so a visited point dominates or equals
// the query exactly when its projection is componentwise <= the query's:
// "does anything visited so far dominate p" is one binary search. This
// is the maxima-of-vectors sweep of Kung, Luccio & Preparata (JACM 1975),
// which Jensen (IEEE TEC 2003) applied to non-dominated sorting.
type staircase []corner

// covers reports whether some corner is componentwise <= (y, z). Of the
// corners with corner.y <= y, the last one has the smallest z.
func (s staircase) covers(y, z float64) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].y <= y {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo > 0 && s[lo-1].z <= z
}

// insert adds (y, z), which no corner may cover, and drops the corners it
// covers: they are the run of corners from the first one with y' >= y
// while z' >= z.
func (s *staircase) insert(y, z float64) {
	c := *s
	lo, hi := 0, len(c)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c[mid].y < y {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	j := lo
	for j < len(c) && c[j].z >= z {
		j++
	}
	switch {
	case j == lo: // nothing covered: open a slot
		c = append(c, corner{})
		copy(c[lo+1:], c[lo:])
	case j > lo+1: // several covered: close the gap
		c = append(c[:lo+1], c[j:]...)
	}
	c[lo] = corner{y, z}
	*s = c
}

// stairKey projects a vector of at most three objectives onto the
// staircase plane, reading a missing objective as 0: with two objectives
// every front's staircase is a single corner, its minimum f2.
func stairKey(o Objectives) (y, z float64) {
	switch len(o) {
	case 3:
		return o[1], o[2]
	case 2:
		return o[1], 0
	}
	return 0, 0
}

// sortWorkspace owns every buffer the fast non-dominated sort needs, so a
// search algorithm that keeps one workspace per run ranks populations of
// any (stable) size without allocating after the first generation.
type sortWorkspace struct {
	ranks  []int
	crowd  []float64
	order  []int       // feasible population indices in lexicographic order
	stairs []staircase // per-front staircases (M <= 3)
	fronts [][]int     // per-front member indices (M >= 4), then crowding buckets
	nf     int         // fronts in use
	member []Point     // one front's points, gathered for crowding
	dist   []float64   // crowding scratch
	keys   []crowdKey  // crowding scratch
}

// rankAndCrowd computes the non-domination rank (0 = best) and crowding
// distance of each population member under constrained dominance: feasible
// points rank by Pareto dominance among themselves and every infeasible
// point lands together in one final front (they are mutually incomparable
// and dominated by every feasible point). The returned slices are
// workspace-owned and valid until the next call.
func (ws *sortWorkspace) rankAndCrowd(pop []Point) (ranks []int, crowd []float64) {
	if testNaiveRank {
		return rankAndCrowdNaive(pop)
	}
	n := len(pop)
	ws.ranks = grow(ws.ranks, n)
	ws.crowd = grow(ws.crowd, n)
	if n == 0 {
		return ws.ranks, ws.crowd
	}

	ws.order = ws.order[:0]
	infeasible := 0
	for i := range pop {
		if pop[i].Feasible {
			ws.order = append(ws.order, i)
		} else {
			infeasible++
		}
	}
	sortLex(pop, ws.order)

	maxRank := -1
	if len(ws.order) > 0 {
		maxRank = ws.ensBS(pop)
	}
	nFronts := maxRank + 1
	if infeasible > 0 {
		for i := range pop {
			if !pop[i].Feasible {
				ws.ranks[i] = nFronts
			}
		}
		nFronts++
	}

	// Re-bucket each front's members in ascending population index order —
	// the canonical order crowding is defined over.
	ws.ensureFronts(nFronts)
	for i := 0; i < n; i++ {
		r := ws.ranks[i]
		ws.fronts[r] = append(ws.fronts[r], i)
	}
	for f := 0; f < nFronts; f++ {
		members := ws.fronts[f]
		ws.member = ws.member[:0]
		for _, i := range members {
			ws.member = append(ws.member, pop[i])
		}
		ws.dist = grow(ws.dist, len(members))
		ws.keys = grow(ws.keys, len(members))
		crowdingInto(ws.member, ws.dist, ws.keys)
		for k, i := range members {
			ws.crowd[i] = ws.dist[k]
		}
	}
	return ws.ranks, ws.crowd
}

// ensBS is the efficient non-dominated sort with binary search over
// fronts: points arrive in lexicographic order, so only already-placed
// points can dominate a newcomer, domination by a lex-earlier distinct
// point reduces to componentwise <=, and the fronts that dominate a point
// always form a prefix. With at most three objectives each front is a
// staircase and "does front f dominate p" is one covers query; four and
// more objectives scan the front's members. Exact duplicates inherit the
// representative's front and are not re-added. Returns the highest
// feasible rank.
func (ws *sortWorkspace) ensBS(pop []Point) int {
	stairs := len(pop[ws.order[0]].Objs) <= 3
	ws.nf = 0
	for k, i := range ws.order {
		if k > 0 {
			if j := ws.order[k-1]; equalObjs(pop[j].Objs, pop[i].Objs) {
				ws.ranks[i] = ws.ranks[j]
				continue
			}
		}
		objs := pop[i].Objs
		y, z := stairKey(objs)
		lo, hi := 0, ws.nf
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			var dominated bool
			if stairs {
				dominated = ws.stairs[mid].covers(y, z)
			} else {
				dominated = ws.frontDominates(pop, mid, objs)
			}
			if dominated {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == ws.nf {
			if stairs {
				if ws.nf == len(ws.stairs) {
					ws.stairs = append(ws.stairs, nil)
				}
				ws.stairs[ws.nf] = ws.stairs[ws.nf][:0]
			} else {
				if ws.nf == len(ws.fronts) {
					ws.fronts = append(ws.fronts, nil)
				}
				ws.fronts[ws.nf] = ws.fronts[ws.nf][:0]
			}
			ws.nf++
		}
		if stairs {
			ws.stairs[lo].insert(y, z)
		} else {
			ws.fronts[lo] = append(ws.fronts[lo], i)
		}
		ws.ranks[i] = lo
	}
	return ws.nf - 1
}

// frontDominates reports whether any member of front f dominates objs —
// the four-or-more-objective fallback of ensBS. Members are scanned
// newest-first: the most recently placed points are closest in
// lexicographic order and the likeliest dominators.
func (ws *sortWorkspace) frontDominates(pop []Point, f int, objs Objectives) bool {
	members := ws.fronts[f]
	for k := len(members) - 1; k >= 0; k-- {
		m := pop[members[k]].Objs
		dom := true
		for d := range m {
			if m[d] > objs[d] {
				dom = false
				break
			}
		}
		if dom {
			return true
		}
	}
	return false
}

// ensureFronts resets the first n front buckets to zero length, keeping
// their backing arrays.
func (ws *sortWorkspace) ensureFronts(n int) {
	for len(ws.fronts) < n {
		ws.fronts = append(ws.fronts, nil)
	}
	for f := 0; f < n; f++ {
		ws.fronts[f] = ws.fronts[f][:0]
	}
	ws.nf = n
}

// crowdKey is one front member's value on the objective being sorted,
// tagged with its front position.
type crowdKey struct {
	v float64
	i int
}

// compareCrowdKeys orders crowding keys by value, ties broken by front
// position — a total order, so every sort algorithm yields the same
// permutation.
func compareCrowdKeys(a, b crowdKey) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return a.i - b.i
}

// crowdingInto is the canonical crowding computation: NSGA-II crowding
// distance over front, written into dist, with the per-objective orderings
// fully determined (objective value, then front position) so equal inputs
// always produce bit-equal outputs regardless of sort algorithm. keys is
// scratch of len(front).
func crowdingInto(front []Point, dist []float64, keys []crowdKey) {
	n := len(front)
	for i := range dist[:n] {
		dist[i] = 0
	}
	if n == 0 {
		return
	}
	m := len(front[0].Objs)
	for obj := 0; obj < m; obj++ {
		for i := range keys {
			keys[i] = crowdKey{front[i].Objs[obj], i}
		}
		slices.SortFunc(keys, compareCrowdKeys)
		lo, hi := keys[0].v, keys[n-1].v
		dist[keys[0].i] = math.Inf(1)
		dist[keys[n-1].i] = math.Inf(1)
		if hi == lo {
			continue
		}
		for k := 1; k < n-1; k++ {
			dist[keys[k].i] += (keys[k+1].v - keys[k-1].v) / (hi - lo)
		}
	}
}

// rankAndCrowdNaive is the O(MN²) reference: pairwise constrained-dominance
// counting with front peeling. It allocates freely and exists so the fast
// sort has something to be proven equivalent against.
func rankAndCrowdNaive(pop []Point) (ranks []int, crowd []float64) {
	n := len(pop)
	ranks = make([]int, n)
	crowd = make([]float64, n)

	dominatedBy := make([][]int, n) // dominatedBy[i]: indices i dominates
	count := make([]int, n)         // how many dominate i
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if dominatesConstrained(pop[i], pop[j]) {
				dominatedBy[i] = append(dominatedBy[i], j)
			} else if dominatesConstrained(pop[j], pop[i]) {
				count[i]++
			}
		}
	}
	var front []int
	for i := 0; i < n; i++ {
		if count[i] == 0 {
			ranks[i] = 0
			front = append(front, i)
		}
	}
	nFronts := 0
	for len(front) > 0 {
		nFronts++
		var next []int
		for _, i := range front {
			for _, j := range dominatedBy[i] {
				count[j]--
				if count[j] == 0 {
					ranks[j] = nFronts
					next = append(next, j)
				}
			}
		}
		front = next
	}
	// Crowding per front, members in ascending population index order —
	// the same canonical order the fast sort uses.
	for f := 0; f < nFronts; f++ {
		var members []Point
		var where []int
		for i := 0; i < n; i++ {
			if ranks[i] == f {
				members = append(members, pop[i])
				where = append(where, i)
			}
		}
		d := CrowdingDistance(members)
		for k, i := range where {
			crowd[i] = d[k]
		}
	}
	return ranks, crowd
}

// grow returns s resized to n, reallocating only on capacity growth.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
