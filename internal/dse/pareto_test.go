package dse

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b Objectives
		want bool
	}{
		{Objectives{1, 1}, Objectives{2, 2}, true},
		{Objectives{1, 2}, Objectives{2, 1}, false},
		{Objectives{1, 1}, Objectives{1, 1}, false}, // equal: no strict improvement
		{Objectives{1, 1}, Objectives{1, 2}, true},
		{Objectives{2, 2}, Objectives{1, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Dominance must be a strict partial order: irreflexive, asymmetric,
// transitive.
func TestDominanceIsStrictPartialOrder(t *testing.T) {
	gen := func(r *rand.Rand) Objectives {
		o := make(Objectives, 3)
		for i := range o {
			o[i] = float64(r.Intn(5))
		}
		return o
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		if Dominates(a, a) {
			return false // irreflexive
		}
		if Dominates(a, b) && Dominates(b, a) {
			return false // asymmetric
		}
		if Dominates(a, b) && Dominates(b, c) && !Dominates(a, c) {
			return false // transitive
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func mkPoints(objs ...[]float64) []Point {
	pts := make([]Point, len(objs))
	for i, o := range objs {
		pts[i] = Point{Objs: o, Feasible: true}
	}
	return pts
}

func TestNonDominated(t *testing.T) {
	pts := mkPoints(
		[]float64{1, 5},
		[]float64{2, 3},
		[]float64{3, 4}, // dominated by {2,3}
		[]float64{4, 1},
		[]float64{2, 3}, // duplicate
	)
	front := NonDominated(pts)
	if len(front) != 3 {
		t.Fatalf("front size = %d, want 3: %v", len(front), front)
	}
	// Infeasible points never enter the front.
	pts = append(pts, Point{Objs: Objectives{0, 0}, Feasible: false})
	front = NonDominated(pts)
	if len(front) != 3 {
		t.Errorf("infeasible point entered the front")
	}
}

// NonDominated must be idempotent and its output mutually non-dominated.
func TestNonDominatedProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{
				Objs:     Objectives{float64(r.Intn(10)), float64(r.Intn(10))},
				Feasible: r.Intn(5) > 0,
			}
		}
		front := NonDominated(pts)
		for i, p := range front {
			for j, q := range front {
				if i != j && Dominates(p.Objs, q.Objs) {
					return false
				}
			}
		}
		again := NonDominated(front)
		return len(again) == len(front)
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The incremental archive must agree with the batch filter.
func TestArchiveMatchesBatchFilter(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		var arch Archive
		var all []Point
		for i := 0; i < n; i++ {
			p := Point{
				Objs:     Objectives{float64(r.Intn(8)), float64(r.Intn(8))},
				Feasible: true,
			}
			arch.Add(p)
			all = append(all, p)
		}
		batch := NonDominated(all)
		if arch.Len() != len(batch) {
			return false
		}
		// Same objective multisets.
		seen := map[[2]float64]int{}
		for _, p := range arch.Points() {
			seen[[2]float64{p.Objs[0], p.Objs[1]}]++
		}
		for _, p := range batch {
			seen[[2]float64{p.Objs[0], p.Objs[1]}]--
		}
		for _, v := range seen {
			if v != 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestArchiveOwnsConfigs checks that the archive keeps copies of the genes
// it is given: after every caller slice is overwritten, through inserts,
// evictions and reused buffers, each archived point still carries the
// genes it was added with. Two and three objectives take different Add
// paths; AddBatch shares one.
func TestArchiveOwnsConfigs(t *testing.T) {
	for _, m := range []int{2, 3} {
		r := rand.New(rand.NewSource(int64(m)))
		var one, batched Archive
		var all []Point
		for wave := 0; wave < 4; wave++ {
			// Each wave sits closer to the simplex, so it evicts much of
			// the last one and its buffers are reused.
			pts := frontPoints(r, 64, m, 0.3-0.1*float64(wave), 0.4-0.1*float64(wave), 16)
			for i := range pts {
				tag := len(all) + i
				pts[i].Config = Config{tag, 7 * tag}
			}
			for _, p := range pts {
				one.Add(p)
			}
			batched.AddBatch(pts)
			all = append(all, pts...)
			for _, p := range pts {
				p.Config[0], p.Config[1] = -1, -1
			}
			for name, a := range map[string]*Archive{"Add": &one, "AddBatch": &batched} {
				for _, p := range a.Points() {
					tag := p.Config[0]
					if tag < 0 || tag >= len(all) || p.Config[1] != 7*tag || !equalObjs(p.Objs, all[tag].Objs) {
						t.Fatalf("%d objectives, wave %d, %s: archived point %v does not keep its genes", m, wave, name, p)
					}
				}
			}
		}
	}
}

func TestArchiveRejectsDuplicatesAndDominated(t *testing.T) {
	var a Archive
	if !a.Add(Point{Objs: Objectives{1, 1}, Feasible: true}) {
		t.Error("first point rejected")
	}
	if a.Add(Point{Objs: Objectives{1, 1}, Feasible: true}) {
		t.Error("duplicate accepted")
	}
	if a.Add(Point{Objs: Objectives{2, 2}, Feasible: true}) {
		t.Error("dominated point accepted")
	}
	if a.Add(Point{Objs: Objectives{0, 0}, Feasible: false}) {
		t.Error("infeasible point accepted")
	}
	if !a.Add(Point{Objs: Objectives{0, 2}, Feasible: true}) {
		t.Error("incomparable point rejected")
	}
	if a.Len() != 2 {
		t.Errorf("archive size = %d, want 2", a.Len())
	}
	// A dominating point evicts.
	if !a.Add(Point{Objs: Objectives{0, 0}, Feasible: true}) {
		t.Error("dominating point rejected")
	}
	if a.Len() != 1 {
		t.Errorf("archive size after eviction = %d, want 1", a.Len())
	}
}

func TestCrowdingDistance(t *testing.T) {
	front := mkPoints(
		[]float64{0, 4},
		[]float64{1, 2},
		[]float64{2, 1},
		[]float64{4, 0},
	)
	d := CrowdingDistance(front)
	if !math.IsInf(d[0], 1) || !math.IsInf(d[3], 1) {
		t.Error("boundary points must have infinite crowding")
	}
	if d[1] <= 0 || d[2] <= 0 || math.IsInf(d[1], 1) {
		t.Errorf("interior crowding: %v", d)
	}
	if got := CrowdingDistance(nil); len(got) != 0 {
		t.Error("empty front")
	}
	// Identical objective values: no NaNs.
	same := mkPoints([]float64{1, 1}, []float64{1, 1}, []float64{1, 1})
	for _, v := range CrowdingDistance(same) {
		if math.IsNaN(v) {
			t.Error("NaN crowding on degenerate front")
		}
	}
}

// TestCrowdingDistanceEdgeCases covers the degenerate fronts the
// randomized equivalence tests may sample thinly: duplicate objective
// vectors, singleton fronts, all-equal fronts, and two-member fronts.
func TestCrowdingDistanceEdgeCases(t *testing.T) {
	// Duplicate vectors: deterministic tie-break means the first duplicate
	// takes the boundary +Inf and later ones get finite (zero-width)
	// contributions — crucially, never NaN, and stable across calls.
	dup := mkPoints([]float64{0, 4}, []float64{2, 2}, []float64{2, 2}, []float64{4, 0})
	d1 := CrowdingDistance(dup)
	d2 := CrowdingDistance(dup)
	for i := range d1 {
		if math.IsNaN(d1[i]) {
			t.Errorf("duplicate front produced NaN at %d: %v", i, d1)
		}
		if d1[i] != d2[i] {
			t.Errorf("crowding not deterministic on duplicates: %v vs %v", d1, d2)
		}
	}
	if !math.IsInf(d1[0], 1) || !math.IsInf(d1[3], 1) {
		t.Errorf("boundary points lost +Inf: %v", d1)
	}

	// Single-member front: the lone point is both boundaries.
	single := CrowdingDistance(mkPoints([]float64{3, 7}))
	if len(single) != 1 || !math.IsInf(single[0], 1) {
		t.Errorf("singleton crowding = %v, want [+Inf]", single)
	}

	// All-equal objectives: every point is a boundary candidate in a
	// zero-width range; no NaNs, no negative distances.
	same := mkPoints([]float64{1, 1}, []float64{1, 1}, []float64{1, 1}, []float64{1, 1})
	for i, v := range CrowdingDistance(same) {
		if math.IsNaN(v) || v < 0 {
			t.Errorf("all-equal front: dist[%d] = %v", i, v)
		}
	}

	// Two members: both are boundaries in every objective.
	pair := CrowdingDistance(mkPoints([]float64{0, 1}, []float64{1, 0}))
	if !math.IsInf(pair[0], 1) || !math.IsInf(pair[1], 1) {
		t.Errorf("two-member front crowding = %v, want both +Inf", pair)
	}

	// Three objectives with one degenerate (constant) dimension: the
	// constant axis contributes nothing, the others still accumulate.
	tri := CrowdingDistance(mkPoints(
		[]float64{0, 4, 5}, []float64{2, 2, 5}, []float64{4, 0, 5},
	))
	if !math.IsInf(tri[0], 1) || !math.IsInf(tri[2], 1) || tri[1] <= 0 || math.IsInf(tri[1], 1) {
		t.Errorf("degenerate-axis crowding = %v", tri)
	}
}

func TestHypervolume2D(t *testing.T) {
	front := mkPoints([]float64{1, 3}, []float64{2, 2}, []float64{3, 1})
	// Reference (4,4): union of boxes = 3·1 + 1·... compute: sweep:
	// (4-1)(4-3)=3, then (4-2)(3-2)=2, then (4-3)(2-1)=1 → 6.
	got := Hypervolume(front, Objectives{4, 4})
	if math.Abs(got-6) > 1e-12 {
		t.Errorf("HV = %g, want 6", got)
	}
	// Dominated point adds nothing.
	withDominated := append(front, Point{Objs: Objectives{3, 3}, Feasible: true})
	if got2 := Hypervolume(withDominated, Objectives{4, 4}); math.Abs(got2-6) > 1e-12 {
		t.Errorf("HV with dominated point = %g, want 6", got2)
	}
	// Points outside the reference box are ignored.
	outside := append(front, Point{Objs: Objectives{5, 0}, Feasible: true})
	if got3 := Hypervolume(outside, Objectives{4, 4}); math.Abs(got3-6) > 1e-12 {
		t.Errorf("HV with outside point = %g, want 6", got3)
	}
	if got4 := Hypervolume(nil, Objectives{4, 4}); got4 != 0 {
		t.Errorf("empty HV = %g", got4)
	}
}

func TestHypervolume3D(t *testing.T) {
	// A single point: box volume.
	one := mkPoints([]float64{1, 1, 1})
	if got := Hypervolume(one, Objectives{2, 2, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("HV = %g, want 1", got)
	}
	// Two incomparable points: inclusion-exclusion by hand.
	// a=(0,2,0), b=(2,0,2), ref=(3,3,3):
	// vol(a)=3·1·3=9, vol(b)=1·3·1=3, overlap=(3-2)(3-2)(3-2)=1 → 11.
	two := mkPoints([]float64{0, 2, 0}, []float64{2, 0, 2})
	if got := Hypervolume(two, Objectives{3, 3, 3}); math.Abs(got-11) > 1e-12 {
		t.Errorf("HV = %g, want 11", got)
	}
	// The in-place slice sweep sums the same products in the same order
	// as the copy-and-sort reference, on grid fronts (ties, duplicates)
	// and continuous ones, dominated points included.
	for trial := 0; trial < 500; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		grid := 0
		if trial%2 == 0 {
			grid = 5 + r.Intn(30)
		}
		pts := frontPoints(r, 1+r.Intn(200), 3, 0, 0.2*r.Float64(), grid)
		ref := Objectives{1.5, 1.5, 1.5}
		var objs []Objectives
		for _, p := range pts {
			objs = append(objs, p.Objs)
		}
		want := hv3Reference(objs, ref)
		if got := Hypervolume(pts, ref); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: HV = %v, reference %v", trial, got, want)
		}
	}
}

// hv3Reference is the copy-and-sort 3-D hypervolume hv3 replaced, kept
// verbatim as the bit-equality reference.
func hv3Reference(pts []Objectives, ref Objectives) float64 {
	sort.Slice(pts, func(a, b int) bool { return pts[a][2] < pts[b][2] })
	var hv float64
	for i := 0; i < len(pts); i++ {
		zTop := ref[2]
		if i+1 < len(pts) {
			zTop = pts[i+1][2]
		}
		dz := zTop - pts[i][2]
		if dz <= 0 {
			continue
		}
		slice := make([]Objectives, 0, i+1)
		for j := 0; j <= i; j++ {
			slice = append(slice, Objectives{pts[j][0], pts[j][1]})
		}
		hv += hv2(slice, Objectives{ref[0], ref[1]}) * dz
	}
	return hv
}

// Hypervolume grows (weakly) when points are added.
func TestHypervolumeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ref := Objectives{10, 10}
		var pts []Point
		prev := 0.0
		for i := 0; i < 20; i++ {
			pts = append(pts, Point{
				Objs:     Objectives{r.Float64() * 10, r.Float64() * 10},
				Feasible: true,
			})
			hv := Hypervolume(pts, ref)
			if hv < prev-1e-12 {
				return false
			}
			prev = hv
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHypervolumePanicsOnHighDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("4-objective HV should panic")
		}
	}()
	Hypervolume(mkPoints([]float64{1, 1, 1, 1}), Objectives{2, 2, 2, 2})
}

func TestCoverage(t *testing.T) {
	a := mkPoints([]float64{1, 1})
	b := mkPoints([]float64{2, 2}, []float64{0, 5})
	if got := Coverage(a, b); got != 0.5 {
		t.Errorf("C(a,b) = %g, want 0.5", got)
	}
	if got := Coverage(b, a); got != 0 {
		t.Errorf("C(b,a) = %g, want 0", got)
	}
	if got := Coverage(a, nil); got != 0 {
		t.Errorf("C(a,∅) = %g, want 0", got)
	}
	// Equal points count as covered.
	if got := Coverage(a, mkPoints([]float64{1, 1})); got != 1 {
		t.Errorf("C(a,a) = %g, want 1", got)
	}
}
