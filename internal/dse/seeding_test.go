package dse

import (
	"reflect"
	"sync"
	"testing"
)

// recordingEvaluator wraps an Evaluator and records every configuration
// it actually evaluates (memo-cache hits never reach it), in call order.
type recordingEvaluator struct {
	inner Evaluator
	mu    sync.Mutex
	seen  []Config
}

func (e *recordingEvaluator) NumObjectives() int { return e.inner.NumObjectives() }
func (e *recordingEvaluator) Evaluate(c Config) (Objectives, error) {
	e.mu.Lock()
	e.seen = append(e.seen, c.Clone())
	e.mu.Unlock()
	return e.inner.Evaluate(c)
}

func TestOptionsValidSeeds(t *testing.T) {
	s := testSpace(4, 3)
	opts := Options{SeedPoints: []Config{
		{1, 2},    // valid
		{1, 2},    // duplicate: dropped
		{3, 0},    // valid
		{4, 0},    // gene 0 out of range: dropped
		{1},       // wrong arity: dropped
		{0, 1, 0}, // wrong arity: dropped
		{0, 0},    // valid
		{2, 2},    // valid but beyond max below
	}}
	got := opts.validSeeds(s, 3)
	want := []Config{{1, 2}, {3, 0}, {0, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("validSeeds = %v, want %v", got, want)
	}
	if (Options{}).validSeeds(s, 3) != nil {
		t.Fatal("empty seed list produced seeds")
	}
	if n := len((Options{SeedPoints: want}).validSeeds(s, 0)); n != 3 {
		t.Fatalf("max 0 (unbounded) kept %d seeds, want 3", n)
	}
}

// TestConfigKeyFullGenes checks that Key encodes every gene in full: two
// bytes per gene merged genes that differ by a multiple of 65,536, and
// validSeeds dropped the second of two distinct seeds.
func TestConfigKeyFullGenes(t *testing.T) {
	seeds := []Config{{0}, {65536}}
	if got := (Options{SeedPoints: seeds}).validSeeds(testSpace(70000), 0); len(got) != 2 {
		t.Fatalf("validSeeds kept %v of %v", got, seeds)
	}
	if (Config{-1}).Key() == (Config{65535}).Key() {
		t.Fatal("{-1} and {65535} share a key")
	}
}

// TestNSGA2SeedPointsFillInitialPopulation pins the injection contract:
// at one worker, the first len(seeds) evaluations of the run are exactly
// the seed points in order, and the rest of the initial population is
// drawn randomly.
func TestNSGA2SeedPointsFillInitialPopulation(t *testing.T) {
	s := testSpace(16, 4)
	rec := &recordingEvaluator{inner: &convexEvaluator{space: s}}
	seeds := []Config{{15, 0}, {0, 0}, {7, 2}}
	cfg := NSGA2Config{PopulationSize: 8, Generations: 2, Seed: 5, Workers: 1}
	if _, err := NSGA2Opts(s, rec, cfg, Options{SeedPoints: seeds}); err != nil {
		t.Fatal(err)
	}
	if len(rec.seen) < len(seeds) {
		t.Fatalf("only %d evaluations recorded", len(rec.seen))
	}
	for i, want := range seeds {
		if !rec.seen[i].Equal(want) {
			t.Fatalf("evaluation %d = %v, want seed %v", i, rec.seen[i], want)
		}
	}
}

// TestNSGA2SeedPointsDeterminism: the seeded run is deterministic, an
// empty seed list is bit-identical to the plain entry point (seeded
// slots consume no RNG draws, so the random tail matches draw for draw),
// and invalid seeds are skipped rather than failing the run.
func TestNSGA2SeedPointsDeterminism(t *testing.T) {
	s := testSpace(12, 5, 3)
	cfg := NSGA2Config{PopulationSize: 8, Generations: 6, Seed: 9, Workers: 2}
	run := func(opts Options) *Result {
		t.Helper()
		res, err := NSGA2Opts(s, &convexEvaluator{space: s}, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, err := NSGA2(s, &convexEvaluator{space: s}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if noSeeds := run(Options{SeedPoints: []Config{}}); !reflect.DeepEqual(plain.Front, noSeeds.Front) {
		t.Fatal("empty SeedPoints changed the run")
	}
	seeds := []Config{{11, 4, 2}, {0, 0, 0}}
	a, b := run(Options{SeedPoints: seeds}), run(Options{SeedPoints: seeds})
	if !reflect.DeepEqual(a.Front, b.Front) || a.Evaluated != b.Evaluated {
		t.Fatal("seeded run is not deterministic")
	}
	// A seed list of nothing-but-garbage degrades to the plain run.
	garbage := run(Options{SeedPoints: []Config{{99, 0, 0}, {1, 2}}})
	if !reflect.DeepEqual(plain.Front, garbage.Front) {
		t.Fatal("all-invalid SeedPoints changed the run")
	}
}

// TestMOSASeedPointsStartChains: chain i starts its walk from seed i —
// at one worker the chains run in order, so each seed is the first
// configuration its chain evaluates.
func TestMOSASeedPointsStartChains(t *testing.T) {
	s := testSpace(16, 4)
	rec := &recordingEvaluator{inner: &convexEvaluator{space: s}}
	seeds := []Config{{15, 3}, {0, 0}}
	cfg := MOSAConfig{Iterations: 64, Restarts: 2, Seed: 4, Workers: 1}
	if _, err := MOSAOpts(s, rec, cfg, Options{SeedPoints: seeds}); err != nil {
		t.Fatal(err)
	}
	if len(rec.seen) == 0 || !rec.seen[0].Equal(seeds[0]) {
		t.Fatalf("chain 0 started at %v, want %v", rec.seen[0], seeds[0])
	}
	found := false
	for _, c := range rec.seen {
		if c.Equal(seeds[1]) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("chain 1's seed %v never evaluated", seeds[1])
	}

	// Determinism and the empty-list no-op, as for NSGA-II.
	run := func(opts Options) *Result {
		t.Helper()
		res, err := MOSAOpts(s, &convexEvaluator{space: s}, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(Options{})
	if noSeeds := run(Options{SeedPoints: nil}); !reflect.DeepEqual(plain.Front, noSeeds.Front) {
		t.Fatal("nil SeedPoints changed the MOSA run")
	}
	a, b := run(Options{SeedPoints: seeds}), run(Options{SeedPoints: seeds})
	if !reflect.DeepEqual(a.Front, b.Front) || a.Evaluated != b.Evaluated {
		t.Fatal("seeded MOSA run is not deterministic")
	}
}
