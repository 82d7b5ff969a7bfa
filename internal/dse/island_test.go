package dse

import (
	"errors"
	"reflect"
	"testing"
)

// runRounds drives one search as a sequence of StopAfter rounds: run to
// each boundary in targets, capture the forced snapshot, round-trip it
// through JSON (like the coordinator's checkpoint files do), and resume.
// The final call runs to completion.
func runRounds(t *testing.T, run func(opts Options) (*Result, error), targets []int) *Result {
	t.Helper()
	var resume *Snapshot
	for _, target := range targets {
		var captured *Snapshot
		opts := Options{
			StopAfter:  target,
			Resume:     resume,
			Checkpoint: func(s *Snapshot) error { captured = s; return nil },
		}
		res, err := run(opts)
		if !errors.Is(err, ErrPaused) {
			t.Fatalf("round to %d: got err %v, want ErrPaused (result %+v)", target, err, res)
		}
		if captured == nil {
			t.Fatalf("round to %d: pause produced no snapshot", target)
		}
		if captured.Step != target {
			t.Fatalf("round to %d: snapshot at step %d", target, captured.Step)
		}
		resume = roundTrip(t, captured)
	}
	res, err := run(Options{Resume: resume})
	if err != nil {
		t.Fatalf("final round: %v", err)
	}
	return res
}

// TestStopAfterRoundsMatchUninterrupted is the pause/resume contract the
// island coordinator builds on: a run chopped into StopAfter rounds at
// arbitrary boundaries walks the identical trajectory and lands on a
// bit-identical front.
func TestStopAfterRoundsMatchUninterrupted(t *testing.T) {
	s := testSpace(12, 4, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}

	cases := []struct {
		name    string
		run     func(opts Options) (*Result, error)
		targets []int
	}{
		{"nsga2", func(opts Options) (*Result, error) {
			return Search{Algorithm: "nsga2", Seed: 9, Workers: 2,
				NSGA2: &NSGA2Config{PopulationSize: 16, Generations: 12}}.Run(s, eval, opts)
		}, []int{3, 6, 9}},
		{"mosa", func(opts Options) (*Result, error) {
			return Search{Algorithm: "mosa", Seed: 5, Workers: 2,
				MOSA: &MOSAConfig{Iterations: 8192, Restarts: 4}}.Run(s, eval, opts)
		}, []int{2, 4, 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := tc.run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			rounds := runRounds(t, tc.run, tc.targets)
			sameFront(t, plain, rounds, "rounds vs uninterrupted")
		})
	}
}

// TestStopAfterAtFinalBoundaryNeverFires pins the edge: StopAfter at or
// past the last boundary is a plain run to completion.
func TestStopAfterAtFinalBoundaryNeverFires(t *testing.T) {
	s := testSpace(8, 3)
	eval := &convexEvaluator{space: s}
	for _, stop := range []int{5, 7} {
		res, err := Search{Algorithm: "nsga2", Seed: 1,
			NSGA2: &NSGA2Config{PopulationSize: 8, Generations: 5}}.Run(s, eval, Options{StopAfter: stop})
		if err != nil {
			t.Fatalf("StopAfter=%d: %v", stop, err)
		}
		if len(res.Front) == 0 {
			t.Fatalf("StopAfter=%d: empty front", stop)
		}
	}
}

func TestForkSeedDecorrelates(t *testing.T) {
	seen := map[int64]int{}
	for seed := int64(0); seed < 4; seed++ {
		for island := 0; island < 8; island++ {
			seen[ForkSeed(seed, island)]++
			// Island streams must not collide with MOSA chain streams of
			// the same base seed (chainSeed uses a different increment).
			if ForkSeed(seed, island) == chainSeed(seed, island) {
				t.Errorf("ForkSeed(%d,%d) collides with chainSeed", seed, island)
			}
		}
	}
	for v, n := range seen {
		if n > 1 {
			t.Errorf("forked seed %d produced %d times", v, n)
		}
	}
	if ForkSeed(7, 3) != ForkSeed(7, 3) {
		t.Error("ForkSeed is not deterministic")
	}
}

func TestConfigSteps(t *testing.T) {
	space := testSpace(20, 18, 6) // 2160 points: 3 exhaustive batches
	for _, tc := range []struct {
		name   string
		search Search
		want   int
	}{
		{"default NSGA2", Search{Algorithm: "nsga2"}, 50},
		{"NSGA2", Search{Algorithm: "nsga2", NSGA2: &NSGA2Config{Generations: 12}}, 12},
		// 8192 iterations over 4 chains = 2048 per chain = 8 segments of 256.
		{"MOSA", Search{Algorithm: "mosa", MOSA: &MOSAConfig{Iterations: 8192, Restarts: 4}}, 8},
		{"default MOSA (1250 iterations per chain)", Search{Algorithm: "mosa"}, 5},
		{"random", Search{Algorithm: "random", Budget: 3000}, 3},
		{"default random", Search{Algorithm: "random"}, 4},
		{"exhaustive", Search{Algorithm: "exhaustive"}, 3},
		{"exhaustive over its limit", Search{Algorithm: "exhaustive", MaxPoints: 1000}, 0},
		{"unknown algorithm", Search{Algorithm: "gradient-descent"}, 0},
	} {
		if got := tc.search.Steps(space); got != tc.want {
			t.Errorf("%s Steps = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// islandSnapshotPair produces one NSGA-II and one MOSA snapshot to drive
// the migration primitives with.
func islandSnapshotPair(t *testing.T) (*Space, *Snapshot, *Snapshot) {
	t.Helper()
	s := testSpace(12, 4, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	var nsga2Snap, mosaSnap *Snapshot
	_, err := Search{Algorithm: "nsga2", Seed: 9, NSGA2: &NSGA2Config{PopulationSize: 16, Generations: 12}}.Run(s, eval, Options{
		StopAfter:  6,
		Checkpoint: func(sn *Snapshot) error { nsga2Snap = sn; return nil },
	})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	_, err = Search{Algorithm: "mosa", Seed: 5, MOSA: &MOSAConfig{Iterations: 8192, Restarts: 4}}.Run(s, eval, Options{
		StopAfter:  4,
		Checkpoint: func(sn *Snapshot) error { mosaSnap = sn; return nil },
	})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	return s, nsga2Snap, mosaSnap
}

func TestMigrantsOutDeterministicAndBounded(t *testing.T) {
	_, nsga2Snap, mosaSnap := islandSnapshotPair(t)
	for _, tc := range []struct {
		name string
		snap *Snapshot
	}{{"nsga2", nsga2Snap}, {"mosa", mosaSnap}} {
		t.Run(tc.name, func(t *testing.T) {
			a := MigrantsOut(tc.snap, 4)
			b := MigrantsOut(tc.snap, 4)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("MigrantsOut is not deterministic")
			}
			if len(a) == 0 || len(a) > 4 {
				t.Fatalf("got %d migrants, want 1..4", len(a))
			}
			for _, m := range a {
				if !m.Feasible || len(m.Objs) == 0 {
					t.Fatalf("migrant %+v is not a feasible evaluated point", m)
				}
			}
			// k beyond the front size clamps, never duplicates.
			huge := MigrantsOut(tc.snap, 1<<20)
			seen := map[string]bool{}
			for _, m := range huge {
				key := m.Config.Key()
				if seen[key] {
					t.Fatalf("clamped selection repeated %v", m.Config)
				}
				seen[key] = true
			}
		})
	}
	if MigrantsOut(nil, 4) != nil || MigrantsOut(nsga2Snap, 0) != nil {
		t.Error("nil snapshot / k=0 should yield no migrants")
	}
}

// TestInjectMigrantsResumes proves the injected snapshot is still a valid
// resume point, the injection leaves the input snapshot untouched, and
// injecting is deterministic.
func TestInjectMigrantsResumes(t *testing.T) {
	s, nsga2Snap, mosaSnap := islandSnapshotPair(t)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}

	migrants := MigrantsOut(mosaSnap, 4)
	before := roundTrip(t, nsga2Snap)

	inj1, err := InjectMigrants(s, nsga2Snap, migrants)
	if err != nil {
		t.Fatal(err)
	}
	inj2, err := InjectMigrants(s, nsga2Snap, migrants)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inj1, inj2) {
		t.Fatal("InjectMigrants is not deterministic")
	}
	if !reflect.DeepEqual(before, nsga2Snap) {
		t.Fatal("InjectMigrants mutated its input snapshot")
	}
	res1, err := Search{Algorithm: "nsga2", Seed: 9,
		NSGA2: &NSGA2Config{PopulationSize: 16, Generations: 12}}.Run(s, eval, Options{Resume: roundTrip(t, inj1)})
	if err != nil {
		t.Fatalf("resume after injection: %v", err)
	}
	res2, err := Search{Algorithm: "nsga2", Seed: 9,
		NSGA2: &NSGA2Config{PopulationSize: 16, Generations: 12}}.Run(s, eval, Options{Resume: roundTrip(t, inj1)})
	if err != nil {
		t.Fatal(err)
	}
	sameFront(t, res1, res2, "post-injection resume determinism")

	minj, err := InjectMigrants(s, mosaSnap, MigrantsOut(nsga2Snap, 4))
	if err != nil {
		t.Fatal(err)
	}
	mres, err := Search{Algorithm: "mosa", Seed: 5,
		MOSA: &MOSAConfig{Iterations: 8192, Restarts: 4}}.Run(s, eval, Options{Resume: roundTrip(t, minj)})
	if err != nil {
		t.Fatalf("mosa resume after injection: %v", err)
	}
	if len(mres.Front) == 0 {
		t.Fatal("mosa post-injection run found nothing")
	}
}

// TestInjectMigrantsFiltersGarbage: invalid, infeasible and duplicate
// migrants are skipped, never an error; an all-garbage migration is a
// no-op clone.
func TestInjectMigrantsFiltersGarbage(t *testing.T) {
	s, nsga2Snap, _ := islandSnapshotPair(t)
	garbage := []SnapPoint{
		{Config: Config{99, 99, 99}, Objs: Objectives{1, 2}, Feasible: true},             // out of range
		{Config: Config{1, 1}, Objs: Objectives{1, 2}, Feasible: true},                   // wrong gene count
		{Config: Config{1, 1, 1}, Feasible: false},                                       // infeasible
		{Config: Config{2, 2, 2}, Objs: Objectives{1, 2, 3}, Feasible: true},             // objective count
		{Config: nsga2Snap.Population[0].Config, Objs: Objectives{1, 2}, Feasible: true}, // duplicate
	}
	out, err := InjectMigrants(s, nsga2Snap, garbage)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, nsga2Snap.Clone()) {
		t.Fatal("garbage injection changed the snapshot")
	}
}
