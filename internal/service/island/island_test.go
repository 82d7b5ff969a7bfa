package island

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"wsndse/internal/core"
	"wsndse/internal/dse"
)

// testSpace mirrors the dse package's test grid.
func testSpace(values ...int) *dse.Space {
	s := &dse.Space{}
	for i, n := range values {
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = float64(j)
		}
		s.Params = append(s.Params, dse.Parameter{Name: string(rune('a' + i)), Values: vals})
	}
	return s
}

// testEval is the dse package's convex benchmark with an infeasible
// band; stateless, so safe for concurrent islands.
type testEval struct{ space *dse.Space }

func (e *testEval) NumObjectives() int { return 2 }
func (e *testEval) Evaluate(c dse.Config) (dse.Objectives, error) {
	if c[0]%3 == 1 {
		return nil, core.Infeasible("band %d excluded", c[0])
	}
	n := float64(len(e.space.Params[0].Values) - 1)
	t := e.space.Value(c, 0) / n
	excess := 0.0
	for i := 1; i < len(c); i++ {
		excess += e.space.Value(c, i)
	}
	excess /= 10
	return dse.Objectives{t + excess, 1 - t + excess}, nil
}

// testJob returns the canonical 4-island job and coordinator config for
// algo ("nsga2" or "mosa"), sized so each algorithm crosses three
// migration boundaries.
func testJob(algo string) (Job, Config) {
	job := Job{JobID: "t1", Scenario: "test", Search: dse.Search{Algorithm: algo, Workers: 2}}
	cfg := Config{Islands: 4, Migrants: 3}
	switch algo {
	case "nsga2":
		job.Seed = 9
		job.NSGA2 = &dse.NSGA2Config{PopulationSize: 16, Generations: 12}
		cfg.Interval = 3 // migrations at generations 3, 6, 9
	case "mosa":
		job.Seed = 5
		job.MOSA = &dse.MOSAConfig{Iterations: 8192, Restarts: 4} // 8 segments
		cfg.Interval = 2                                          // migrations at segments 2, 4, 6
	}
	return job, cfg
}

func runCoordinator(t *testing.T, job Job, cfg Config) *dse.Result {
	t.Helper()
	space := testSpace(12, 4, 3)
	c, err := New(cfg, job, space, &testEval{space: space})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 || res.Evaluated == 0 {
		t.Fatalf("degenerate result: %d front points, %d evaluated", len(res.Front), res.Evaluated)
	}
	return res
}

// sameResult asserts bit-identical merged results (front order included).
func sameResult(t *testing.T, a, b *dse.Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: results differ\n a: %d pts, %d evaluated\n b: %d pts, %d evaluated",
			label, len(a.Front), a.Evaluated, len(b.Front), b.Evaluated)
	}
}

// TestExecutorCountInvariance is the core determinism claim: the merged
// front is a function of the migration schedule, not of how many
// processors execute the islands' goroutines — GOMAXPROCS 1 and 4 merge
// the same front.
func TestExecutorCountInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, algo := range []string{"nsga2", "mosa"} {
		t.Run(algo, func(t *testing.T) {
			job, cfg := testJob(algo)
			runtime.GOMAXPROCS(1)
			serial := runCoordinator(t, job, cfg)
			runtime.GOMAXPROCS(4)
			sameResult(t, serial, runCoordinator(t, job, cfg), "GOMAXPROCS 1 vs 4")
		})
	}
}

// TestSingleIslandMatchesPlainRun: one island with no migration is the
// plain algorithm at the island's forked seed — the coordinator adds
// pause/resume plumbing, not trajectory.
func TestSingleIslandMatchesPlainRun(t *testing.T) {
	job, cfg := testJob("nsga2")
	cfg.Islands = 1
	space := testSpace(12, 4, 3)
	eval := &testEval{space: space}

	got := runCoordinator(t, job, cfg)

	plain, err := dse.Search{Algorithm: "nsga2", Seed: dse.ForkSeed(job.Seed, 0), Workers: 2,
		NSGA2: &dse.NSGA2Config{PopulationSize: 16, Generations: 12},
	}.Run(space, eval, dse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Front) != len(plain.Front) {
		t.Fatalf("coordinator front has %d pts, plain run %d", len(got.Front), len(plain.Front))
	}
	for i := range got.Front {
		if !reflect.DeepEqual(got.Front[i], plain.Front[i]) {
			t.Fatalf("front[%d] differs", i)
		}
	}
	// Evaluated is an upper bound across pause/resume (points dropped
	// from both population and archive are re-counted after resume — see
	// dse.Options.Resume), never an undercount.
	if got.Evaluated < plain.Evaluated {
		t.Fatalf("coordinator evaluated %d < plain %d", got.Evaluated, plain.Evaluated)
	}
}

// TestResumeFromComposite: restarting a coordinator from any mid-run
// OnCheckpoint checkpoint (one snapshot per island) replays the identical
// remainder.
func TestResumeFromComposite(t *testing.T) {
	for _, algo := range []string{"nsga2", "mosa"} {
		t.Run(algo, func(t *testing.T) {
			job, cfg := testJob(algo)
			golden := runCoordinator(t, job, cfg)

			var mu sync.Mutex
			var comps [][]*dse.Snapshot
			cfg.OnCheckpoint = func(s []*dse.Snapshot) {
				mu.Lock()
				comps = append(comps, s)
				mu.Unlock()
			}
			sameResult(t, golden, runCoordinator(t, job, cfg), "checkpointing run")
			if len(comps) != 3 {
				t.Fatalf("%d checkpoints, want 3", len(comps))
			}

			cfg.OnCheckpoint = nil
			for _, comp := range comps {
				cfg.Resume = comp
				sameResult(t, golden, runCoordinator(t, job, cfg), "resumed run")
			}
		})
	}
}

func TestStatusAccounting(t *testing.T) {
	job, cfg := testJob("nsga2")
	space := testSpace(12, 4, 3)
	c, err := New(cfg, job, space, &testEval{space: space})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, st := range c.Status() {
		// 3 migration rounds + the final one, no failures.
		if st.Attempts != 4 || st.Restarts != 0 {
			t.Errorf("island %d: attempts=%d restarts=%d, want 4/0", st.Island, st.Attempts, st.Restarts)
		}
		if st.Step != 12 {
			t.Errorf("island %d: step=%d, want 12", st.Island, st.Step)
		}
		if st.Inline {
			t.Errorf("island %d fell back in-process without a failure", st.Island)
		}
	}
}

// TestNewRejectsBadConfigs covers New's refusals: an algorithm that takes
// no migrants, no islands, and a resume checkpoint of another format
// version.
func TestNewRejectsBadConfigs(t *testing.T) {
	space := testSpace(4)
	eval := &testEval{space: space}
	if _, err := New(Config{Islands: 2}, Job{Search: dse.Search{Algorithm: "exhaustive"}}, space, eval); err == nil {
		t.Error("exhaustive accepted")
	}
	if _, err := New(Config{Islands: 0}, Job{Search: dse.Search{Algorithm: "nsga2"}}, space, eval); err == nil {
		t.Error("0 islands accepted")
	}
	bad := []*dse.Snapshot{{Version: 99, Algorithm: "nsga2"}, {Version: 99, Algorithm: "nsga2"}}
	if _, err := New(Config{Islands: 2, Resume: bad}, Job{Search: dse.Search{Algorithm: "nsga2"}}, space, eval); err == nil {
		t.Error("bad resume snapshot accepted")
	}
}

// TestNewRejectsBadCheckpoint checks that New refuses a resume checkpoint
// that does not fit the job — the wrong island count, a nil island,
// another algorithm, a ranking short of the population, step skew, a
// negative step, or a population of another size than the job's — and
// takes the real one it was cut from.
func TestNewRejectsBadCheckpoint(t *testing.T) {
	// A real checkpoint: two islands paused at generation 6 of 12.
	job, cfg := testJob("nsga2")
	cfg.Islands = 2
	space := testSpace(12, 4, 3)
	eval := &testEval{space: space}
	var ckpt []*dse.Snapshot
	cfg.OnCheckpoint = func(s []*dse.Snapshot) {
		if ckpt == nil || s[0].Step == 6 {
			ckpt = s
		}
	}
	c, err := New(cfg, job, space, eval)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(ckpt) != 2 || ckpt[0].Step != 6 {
		t.Fatalf("checkpoint of %d islands, want 2 at step 6", len(ckpt))
	}
	cfg.OnCheckpoint = nil
	resume := func(snaps []*dse.Snapshot, islands int) error {
		cfg := cfg
		cfg.Islands, cfg.Resume = islands, snaps
		_, err := New(cfg, job, space, eval)
		return err
	}
	if err := resume(ckpt, 2); err != nil {
		t.Fatal(err)
	}
	if err := resume(ckpt, 3); err == nil {
		t.Error("island count mismatch accepted")
	}
	if err := resume([]*dse.Snapshot{ckpt[0], nil}, 2); err == nil {
		t.Error("nil island snapshot accepted")
	}
	other := ckpt[1].Clone()
	other.Algorithm = "mosa"
	if err := resume([]*dse.Snapshot{ckpt[0], other}, 2); err == nil {
		t.Error("algorithm mismatch accepted")
	}
	other = ckpt[1].Clone()
	other.Ranks = other.Ranks[:len(other.Ranks)-1]
	if err := resume([]*dse.Snapshot{ckpt[0], other}, 2); err == nil || !strings.Contains(err.Error(), "ranking covers") {
		t.Errorf("short ranking: err = %v, want a ranking error", err)
	}
	other = ckpt[1].Clone()
	other.Step++
	if err := resume([]*dse.Snapshot{ckpt[0], other}, 2); err == nil {
		t.Error("step skew accepted")
	}
	neg := []*dse.Snapshot{ckpt[0].Clone(), ckpt[1].Clone()}
	for _, s := range neg {
		s.Step = -3
	}
	if err := resume(neg, 2); err == nil {
		t.Error("negative step accepted")
	}
	other = ckpt[1].Clone()
	other.Population = other.Population[:len(other.Population)-2]
	other.Ranks, other.Crowd = other.Ranks[:len(other.Population)], other.Crowd[:len(other.Population)]
	if err := resume([]*dse.Snapshot{ckpt[0], other}, 2); err == nil {
		t.Error("short population accepted")
	}
}
