package dse

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomPopulation draws a population with duplicate-heavy discrete
// objectives (grid) or continuous ones, two or three objectives, and a
// feasibility mix — the degenerate shapes the fast sort must handle.
func randomPopulation(r *rand.Rand) []Point {
	n := 1 + r.Intn(80)
	m := 2 + r.Intn(2)
	grid := r.Intn(2) == 0
	pop := make([]Point, n)
	for i := range pop {
		objs := make(Objectives, m)
		for d := range objs {
			if grid {
				objs[d] = float64(r.Intn(6))
			} else {
				objs[d] = r.Float64() * 10
			}
		}
		pop[i] = Point{Config: Config{i}, Objs: objs, Feasible: r.Intn(5) > 0}
	}
	return pop
}

// frontPopulation draws up to 512 front-shaped points (near the simplex,
// so fronts are large) with 2, 3 or 4 objectives, rounded to a grid so
// ties and exact duplicates occur, with a feasibility mix.
func frontPopulation(r *rand.Rand) []Point {
	n := 1 + r.Intn(512)
	pop := frontPoints(r, n, 2+r.Intn(3), 0, 0.3, 10+r.Intn(40))
	for i := range pop {
		pop[i].Feasible = r.Intn(5) > 0
	}
	return pop
}

// TestFastSortMatchesNaive is the equivalence proof the tentpole demands:
// on >= 1000 randomized populations (2 and 3 objectives, duplicates,
// infeasible mixes, singleton and all-equal degenerate shapes) plus
// front-shaped populations of up to 512 points with 2, 3 and 4
// objectives, the fast workspace sort returns exactly the naive
// reference's ranks and bit-identical crowding distances.
func TestFastSortMatchesNaive(t *testing.T) {
	var ws sortWorkspace
	for trial := 0; trial < 1500; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		var pop []Point
		if trial < 1200 {
			pop = randomPopulation(r)
		} else {
			pop = frontPopulation(r)
		}
		wantRanks, wantCrowd := rankAndCrowdNaive(pop)
		gotRanks, gotCrowd := ws.rankAndCrowd(pop)
		for i := range pop {
			if gotRanks[i] != wantRanks[i] {
				t.Fatalf("trial %d: point %d rank = %d, naive %d\npop: %+v",
					trial, i, gotRanks[i], wantRanks[i], pop)
			}
			if gotCrowd[i] != wantCrowd[i] {
				t.Fatalf("trial %d: point %d crowding = %v, naive %v\npop: %+v",
					trial, i, gotCrowd[i], wantCrowd[i], pop)
			}
		}
	}
}

// TestFastSortDegenerateShapes pins the edge cases the randomized test may
// sample thinly: empty, all-infeasible, all-duplicate populations.
func TestFastSortDegenerateShapes(t *testing.T) {
	var ws sortWorkspace
	cases := [][]Point{
		nil,
		{{Objs: Objectives{1, 2}, Feasible: false}},
		{{Objs: Objectives{1, 2}, Feasible: false}, {Objs: Objectives{0, 0}, Feasible: false}},
		{{Objs: Objectives{1, 2}, Feasible: true}},
		mkPoints([]float64{3, 3}, []float64{3, 3}, []float64{3, 3}),
		mkPoints([]float64{1, 1, 1}, []float64{1, 1, 1}, []float64{0, 2, 1}),
	}
	for ci, pop := range cases {
		wantRanks, wantCrowd := rankAndCrowdNaive(pop)
		gotRanks, gotCrowd := ws.rankAndCrowd(pop)
		if !reflect.DeepEqual(append([]int{}, gotRanks...), append([]int{}, wantRanks...)) {
			t.Errorf("case %d: ranks %v, naive %v", ci, gotRanks, wantRanks)
		}
		for i := range pop {
			if gotCrowd[i] != wantCrowd[i] {
				t.Errorf("case %d: crowding %v, naive %v", ci, gotCrowd, wantCrowd)
			}
		}
	}
}

// TestNSGA2FastVsNaiveBitIdentical runs seeded NSGA-II with the fast sort
// and with the O(MN²) reference wired into the same generation loop, and
// demands bit-identical results — fronts (configurations and objective
// bits), evaluation counts, everything. It proves the speed rewrite itself
// changed nothing: any front difference versus the pre-PR code comes only
// from the two intentional algorithmic changes that shipped alongside it
// (the de-biased tournament tie coin and tournaments reusing the union's
// ranks, per Deb's formulation), never from the fast sort.
func TestNSGA2FastVsNaiveBitIdentical(t *testing.T) {
	s := testSpace(12, 4, 3)
	for _, eval := range []Evaluator{
		&constrainedEvaluator{inner: &convexEvaluator{space: s}},
		&constrainedEvaluator{inner: &simplexEvaluator{space: s}},
	} {
		m := eval.NumObjectives()
		for _, seed := range []int64{1, 7, 42} {
			search := Search{Algorithm: "nsga2", Seed: seed, NSGA2: &NSGA2Config{PopulationSize: 20, Generations: 12}}
			fast, err := search.Run(s, eval, Options{})
			if err != nil {
				t.Fatal(err)
			}
			testNaiveRank = true
			naive, err := search.Run(s, eval, Options{})
			testNaiveRank = false
			if err != nil {
				t.Fatal(err)
			}
			if fast.Evaluated != naive.Evaluated || fast.Infeasible != naive.Infeasible {
				t.Fatalf("m=%d seed %d: counts (%d,%d) vs naive (%d,%d)",
					m, seed, fast.Evaluated, fast.Infeasible, naive.Evaluated, naive.Infeasible)
			}
			if !reflect.DeepEqual(fast.Front, naive.Front) {
				t.Fatalf("m=%d seed %d: fronts differ\nfast:  %+v\nnaive: %+v", m, seed, fast.Front, naive.Front)
			}
		}
	}
}

// naiveArchive is the pre-rewrite O(N) -per-insert archive, kept verbatim
// as the reference the incremental sorted archive is proven against.
type naiveArchive struct {
	points []Point
}

func (a *naiveArchive) Add(p Point) bool {
	if !p.Feasible {
		return false
	}
	kept := a.points[:0]
	for _, q := range a.points {
		if Dominates(q.Objs, p.Objs) || equalObjs(q.Objs, p.Objs) {
			return false
		}
		if !Dominates(p.Objs, q.Objs) {
			kept = append(kept, q)
		}
	}
	a.points = append(kept, p)
	return true
}

// TestArchiveMatchesNaiveArchive drives the incremental sorted archive and
// the pre-rewrite reference through identical random insertion sequences
// (2, 3 and 4 objectives): every Add must return the same verdict and the
// retained point sets must be identical — same points, not merely the same
// objective multiset, which the Config identity tags verify. Since MOSA's
// acceptance energy and archive merging read the archive as a set, this is
// the "before/after" proof that seeded MOSA runs are unchanged by the
// archive rewrite (up to the now-sorted presentation of Points). The same
// sequence also goes through AddBatch in random-size chunks (empty and
// all-infeasible ones included), which must hold exactly the Add
// archive's points after every chunk. Every feasible point also goes
// through addCounting, MOSA's insert, on an archive of its own: its count
// must equal a brute-force count of that archive's dominators of the
// point, it must insert exactly when Add does, and it must hold exactly
// the Add archive's points.
func TestArchiveMatchesNaiveArchive(t *testing.T) {
	for trial := 0; trial < 600; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		m := 2 + r.Intn(3)
		n := 1 + r.Intn(120)
		var fast, batched, counting Archive
		var naive naiveArchive
		for i := 0; i < n; {
			size := r.Intn(12) // 0: an empty chunk
			allInfeasible := r.Intn(8) == 0
			chunk := make([]Point, 0, size)
			for ; len(chunk) < size && i < n; i++ {
				objs := make(Objectives, m)
				for d := range objs {
					objs[d] = float64(r.Intn(7))
				}
				p := Point{Config: Config{i}, Objs: objs, Feasible: !allInfeasible && r.Intn(8) > 0}
				got, want := fast.Add(p), naive.Add(p)
				if got != want {
					t.Fatalf("trial %d insert %d (%v): Add = %v, naive %v", trial, i, objs, got, want)
				}
				if p.Feasible {
					dominators := 0
					for _, q := range counting.Points() {
						if Dominates(q.Objs, p.Objs) {
							dominators++
						}
					}
					if c := counting.addCounting(p); c != dominators {
						t.Fatalf("trial %d insert %d (%v): addCounting = %d, brute force %d", trial, i, objs, c, dominators)
					}
					tag := p.Config[0]
					if kept := slices.ContainsFunc(counting.Points(), func(q Point) bool { return q.Config[0] == tag }); kept != got {
						t.Fatalf("trial %d insert %d (%v): addCounting kept it %v, Add %v", trial, i, objs, kept, got)
					}
				}
				chunk = append(chunk, p)
			}
			batched.AddBatch(chunk)
			if !sameArchive(batched.Points(), fast.Points()) {
				t.Fatalf("trial %d after insert %d: AddBatch archive\n%v\nAdd archive\n%v",
					trial, i, batched.Points(), fast.Points())
			}
			if !sameArchive(counting.Points(), fast.Points()) {
				t.Fatalf("trial %d after insert %d: addCounting archive\n%v\nAdd archive\n%v",
					trial, i, counting.Points(), fast.Points())
			}
		}
		if fast.Len() != len(naive.points) {
			t.Fatalf("trial %d: size %d vs naive %d", trial, fast.Len(), len(naive.points))
		}
		// Same identities: match by the Config tag.
		byTag := map[int]Point{}
		for _, p := range naive.points {
			byTag[p.Config[0]] = p
		}
		prev := Objectives(nil)
		for _, p := range fast.Points() {
			q, ok := byTag[p.Config[0]]
			if !ok || !equalObjs(q.Objs, p.Objs) {
				t.Fatalf("trial %d: archived point %v absent from naive archive", trial, p)
			}
			if prev != nil && !lexLessObjs(prev, p.Objs) {
				t.Fatalf("trial %d: Points not in strict lexicographic order: %v !< %v", trial, prev, p.Objs)
			}
			prev = p.Objs
		}
	}
}

// sameArchive reports whether two archives hold the same points — the
// same Config tags with the same objectives — in the same order.
func sameArchive(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Config[0] != b[i].Config[0] || !equalObjs(a[i].Objs, b[i].Objs) {
			return false
		}
	}
	return true
}

// TestNSGA2GenerationSteadyStateZeroAllocs pins the pooled-buffer claim:
// once the memo cache and archive have converged on a small space, a full
// NSGA-II generation (tournaments, variation, evaluation on the run's
// pool, fast non-dominated sort, environmental selection, archive
// maintenance) performs zero heap allocations, with two objectives and
// with three, inline at one worker and with a pool goroutine at two.
func TestNSGA2GenerationSteadyStateZeroAllocs(t *testing.T) {
	s := testSpace(6, 3)
	for _, workers := range []int{1, 2} {
		for _, eval := range []Evaluator{&convexEvaluator{space: s}, &simplexEvaluator{space: s}} {
			search := Search{Algorithm: "nsga2", Seed: 3, Workers: workers,
				NSGA2: &NSGA2Config{PopulationSize: 16, Generations: 1}}
			rs, err := begin(search, s, eval, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var arch Archive
			rng := rand.New(rand.NewSource(search.Seed))
			r := newNSGA2Run(s, rs, search.nsga2().withDefaults(len(s.Params)), &arch)
			r.seed(rng, nil)
			for gen := 0; gen < 30; gen++ { // saturate the 18-point memo cache
				r.generation(rng)
			}
			allocs := testing.AllocsPerRun(100, func() {
				r.generation(rng)
			})
			rs.pool.stop()
			if allocs != 0 {
				t.Fatalf("workers %d, %d objectives: steady-state generation allocates %.1f objects, want 0",
					workers, eval.NumObjectives(), allocs)
			}
		}
	}
}

// TestMOSAChainSteadyStateZeroAllocs is the annealing twin: once every
// configuration of a small space is memoized and the guiding archive has
// converged, chain iterations (neighbour move, cached evaluation, archive
// insert with its energy count, acceptance test) allocate nothing.
func TestMOSAChainSteadyStateZeroAllocs(t *testing.T) {
	s := testSpace(6, 3)
	pe := NewParallelEvaluator(&convexEvaluator{space: s}, 1)
	c := newMOSAChain(s, MOSAConfig{}.withDefaults(), 9)
	iter := 500
	c.run(s, pe, 0, iter) // saturate cache and archive
	allocs := testing.AllocsPerRun(200, func() {
		iter++
		c.run(s, pe, 0, iter)
	})
	if allocs != 0 {
		t.Fatalf("steady-state chain iteration allocates %.1f objects, want 0", allocs)
	}
}

// TestMOSASegmentSteadyStateZeroAllocs extends the chain gate to a whole
// segment: once the memo has saturated, one segment of four chains on the
// run's pool (the search's own step) allocates nothing, inline at one
// worker and with a pool goroutine at two.
func TestMOSASegmentSteadyStateZeroAllocs(t *testing.T) {
	s := testSpace(6, 3)
	for _, workers := range []int{1, 2} {
		search := Search{Algorithm: "mosa", Seed: 9, Workers: workers, MOSA: &MOSAConfig{Restarts: 4}}
		rs, err := begin(search, s, &convexEvaluator{space: s}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := search.mosa().withDefaults()
		chains := make([]*mosaChain, cfg.Restarts)
		for ch := range chains {
			chains[ch] = newMOSAChain(s, cfg, chainSeed(search.Seed, ch))
		}
		step := mosaStep(rs, s, chains, 1<<30)
		seg := 0
		for seg < 4 { // saturate the 18-point memo and the chain archives
			seg++
			step(seg)
		}
		allocs := testing.AllocsPerRun(50, func() {
			seg++
			step(seg)
		})
		rs.pool.stop()
		if allocs != 0 {
			t.Fatalf("workers %d: steady-state MOSA segment allocates %.1f objects, want 0", workers, allocs)
		}
	}
}

// TestTournamentTieBreakSymmetric checks the satellite fix: on exact
// (rank, crowding) ties the winner no longer always comes from the first
// draw. A replica rng recovers each tournament's draw pair (two Intn
// draws, plus the tie coin), so the test can count how often the first
// draw wins — the old rule made that 100%; the coin makes it ~50%.
func TestTournamentTieBreakSymmetric(t *testing.T) {
	n := 8
	pop := make([]Point, n)
	ranks := make([]int, n) // all rank 0
	crowd := make([]float64, n)
	rng := rand.New(rand.NewSource(5))
	replica := rand.New(rand.NewSource(5))
	firstWins, contested := 0, 0
	for trial := 0; trial < 6000; trial++ {
		a := replica.Intn(n)
		b := replica.Intn(n)
		replica.Intn(2) // the tie coin, to stay in sync
		w := tournament(rng, pop, ranks, crowd)
		if w != a && w != b {
			t.Fatalf("trial %d: winner %d is neither draw (%d, %d)", trial, w, a, b)
		}
		if a == b {
			continue
		}
		contested++
		if w == a {
			firstWins++
		}
	}
	frac := float64(firstWins) / float64(contested)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("first draw wins %.1f%% of contested ties, want ~50%%", frac*100)
	}
	// Determinism: the same seed replays the same winners.
	r1 := rand.New(rand.NewSource(11))
	r2 := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		if tournament(r1, pop, ranks, crowd) != tournament(r2, pop, ranks, crowd) {
			t.Fatal("seeded tournaments diverged")
		}
	}
}
