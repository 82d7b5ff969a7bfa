package dse

import (
	"math"
	"math/rand"
	"testing"
)

// benchPoints draws n feasible points with uniform continuous
// m-objective vectors. With two objectives that is a representative mix
// of dominated and non-dominated inputs; in three dimensions the fronts
// of uniform points are tiny, so the 3-D benchmarks use frontPoints.
func benchPoints(n, m int) []Point {
	r := rand.New(rand.NewSource(int64(n)*31 + int64(m)))
	pts := make([]Point, n)
	for i := range pts {
		objs := make(Objectives, m)
		for d := range objs {
			objs[d] = r.Float64() * 100
		}
		pts[i] = Point{Config: Config{i}, Objs: objs, Feasible: true}
	}
	return pts
}

// frontPoints draws n feasible points near the simplex f1+…+fm = 1 — the
// shape of a real m-objective front, where most points are mutually
// non-dominated. Each point is a uniform point of the simplex shifted by
// an excess drawn from [lo, hi) in every objective; grid > 0 rounds the
// objectives to multiples of 1/grid, so ties and exact duplicates occur.
func frontPoints(r *rand.Rand, n, m int, lo, hi float64, grid int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		objs := make(Objectives, m)
		var sum float64
		for d := range objs {
			objs[d] = r.ExpFloat64()
			sum += objs[d]
		}
		e := lo + (hi-lo)*r.Float64()
		for d := range objs {
			objs[d] = objs[d]/sum + e
			if grid > 0 {
				objs[d] = math.Round(objs[d]*float64(grid)) / float64(grid)
			}
		}
		pts[i] = Point{Config: Config{i}, Objs: objs, Feasible: true}
	}
	return pts
}

// benchNonDominated times the batch Pareto filter at the given scale; the
// N ∈ {64, 256, 1024} ladder shows how its cost grows with the front.
func benchNonDominated(b *testing.B, n int) {
	pts := benchPoints(n, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(batchFront(pts)) == 0 {
			b.Fatal("empty front")
		}
	}
}

func BenchmarkNonDominated64(b *testing.B)   { benchNonDominated(b, 64) }
func BenchmarkNonDominated256(b *testing.B)  { benchNonDominated(b, 256) }
func BenchmarkNonDominated1024(b *testing.B) { benchNonDominated(b, 1024) }

// benchArchiveInsert times one full insertion sequence — n points into a
// fresh archive — so ns/op covers the incremental maintenance the search
// loops actually pay, evictions and rejections included.
func benchArchiveInsert(b *testing.B, n int) {
	pts := benchPoints(n, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var arch Archive
		for _, p := range pts {
			arch.Add(p)
		}
		if arch.Len() == 0 {
			b.Fatal("empty archive")
		}
	}
}

func BenchmarkArchiveInsert64(b *testing.B)   { benchArchiveInsert(b, 64) }
func BenchmarkArchiveInsert256(b *testing.B)  { benchArchiveInsert(b, 256) }
func BenchmarkArchiveInsert1024(b *testing.B) { benchArchiveInsert(b, 1024) }

// benchRankAndCrowd times one non-dominated sort + crowding pass over a
// 2N union (the environmental-selection workload) through the fast
// workspace sort or the O(MN²) reference.
func benchRankAndCrowd(b *testing.B, n int, naive bool) {
	pts := benchPoints(n, 2)
	var ws sortWorkspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			rankAndCrowdNaive(pts)
		} else {
			ws.rankAndCrowd(pts)
		}
	}
}

// benchRankAndCrowd3D is the three-objective twin on front-shaped points
// spread over several fronts — the shape of every service scenario's
// parent∪offspring union.
func benchRankAndCrowd3D(b *testing.B, n int) {
	pts := frontPoints(rand.New(rand.NewSource(int64(n))), n, 3, 0, 0.2, 0)
	var ws sortWorkspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.rankAndCrowd(pts)
	}
}

func BenchmarkRankAndCrowd3D256(b *testing.B)  { benchRankAndCrowd3D(b, 256) }
func BenchmarkRankAndCrowd3D512(b *testing.B)  { benchRankAndCrowd3D(b, 512) }
func BenchmarkRankAndCrowd3D1024(b *testing.B) { benchRankAndCrowd3D(b, 1024) }

// BenchmarkArchiveAddBatch3D times one NSGA-II generation's archive work
// at the scale of an ecg-ward search: a 256-point front-shaped batch into
// a 1,000-point three-objective archive, as one AddBatch and as 256 Add
// calls. The batch straddles the archive's simplex, so it inserts, evicts
// and rejects. Every op first resets the archive to its 1,000 points (a
// copy, the same in both variants).
func BenchmarkArchiveAddBatch3D(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	var seed Archive
	for _, p := range frontPoints(r, 1000, 3, 0, 0, 0) {
		seed.Add(p)
	}
	base := seed.Points()
	batch := frontPoints(r, 256, 3, -0.02, 0.08, 0)
	for _, bc := range []struct {
		name string
		add  func(*Archive)
	}{
		{"batch", func(a *Archive) { a.AddBatch(batch) }},
		{"add", func(a *Archive) {
			for _, p := range batch {
				a.Add(p)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var arch Archive
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arch.reset()
				for _, p := range base {
					arch.points = append(arch.points, Point{Config: arch.own(p.Config), Objs: p.Objs, Feasible: true})
				}
				bc.add(&arch)
			}
			b.ReportMetric(float64(arch.Len()), "points")
		})
	}
}

// BenchmarkHypervolume3D1024 times the telemetry sampler's final-boundary
// call on a 1,024-point three-objective front.
func BenchmarkHypervolume3D1024(b *testing.B) {
	front := frontPoints(rand.New(rand.NewSource(1024)), 1024, 3, 0, 0, 0)
	ref := Objectives{1.1, 1.1, 1.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Hypervolume(front, ref) <= 0 {
			b.Fatal("empty hypervolume")
		}
	}
}

func BenchmarkRankAndCrowd64(b *testing.B)        { benchRankAndCrowd(b, 64, false) }
func BenchmarkRankAndCrowd256(b *testing.B)       { benchRankAndCrowd(b, 256, false) }
func BenchmarkRankAndCrowd1024(b *testing.B)      { benchRankAndCrowd(b, 1024, false) }
func BenchmarkRankAndCrowdNaive256(b *testing.B)  { benchRankAndCrowd(b, 256, true) }
func BenchmarkRankAndCrowdNaive1024(b *testing.B) { benchRankAndCrowd(b, 1024, true) }

// BenchmarkNSGA2Generations256 times seeded NSGA-II at population 256 on a
// cheap analytic evaluator, so the search machinery — tournaments,
// variation, non-dominated sorting, environmental selection, archive — is
// the measured cost rather than the model. Generations per second is the
// headline search-layer throughput.
func BenchmarkNSGA2Generations256(b *testing.B) {
	s := testSpace(64, 16, 16)
	eval := &convexEvaluator{space: s}
	const gens = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Search{Algorithm: "nsga2", Seed: int64(i + 1), Workers: 1,
			NSGA2: &NSGA2Config{PopulationSize: 256, Generations: gens}}.Run(s, eval, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Front) == 0 {
			b.Fatal("empty front")
		}
	}
	b.ReportMetric(float64(b.N*gens)/b.Elapsed().Seconds(), "gens/s")
}

// BenchmarkNSGA2Generations3D256 is the three-objective twin of
// BenchmarkNSGA2Generations256, the objective count of every service
// scenario: the fronts are surfaces, not curves, so ranking and the
// archive carry far more points.
func BenchmarkNSGA2Generations3D256(b *testing.B) {
	s := testSpace(64, 16, 16)
	eval := &simplexEvaluator{space: s}
	const gens = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Search{Algorithm: "nsga2", Seed: int64(i + 1), Workers: 1,
			NSGA2: &NSGA2Config{PopulationSize: 256, Generations: gens}}.Run(s, eval, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Front) == 0 {
			b.Fatal("empty front")
		}
	}
	b.ReportMetric(float64(b.N*gens)/b.Elapsed().Seconds(), "gens/s")
}

// BenchmarkNSGA2Generations256Naive is the same workload with the O(MN²)
// reference sort wired in — the before/after pair for the search-layer
// overhaul's headline claim.
func BenchmarkNSGA2Generations256Naive(b *testing.B) {
	testNaiveRank = true
	defer func() { testNaiveRank = false }()
	s := testSpace(64, 16, 16)
	eval := &convexEvaluator{space: s}
	const gens = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Search{Algorithm: "nsga2", Seed: int64(i + 1), Workers: 1,
			NSGA2: &NSGA2Config{PopulationSize: 256, Generations: gens}}.Run(s, eval, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Front) == 0 {
			b.Fatal("empty front")
		}
	}
	b.ReportMetric(float64(b.N*gens)/b.Elapsed().Seconds(), "gens/s")
}
