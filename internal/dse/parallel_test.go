package dse

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"wsndse/internal/core"
)

// sameResult asserts two search results are bit-identical: same front
// (configs, objectives, feasibility, order) and same counts.
func sameResult(t *testing.T, a, b *Result, label string) {
	t.Helper()
	if a.Evaluated != b.Evaluated || a.Infeasible != b.Infeasible {
		t.Fatalf("%s: counts differ: (%d,%d) vs (%d,%d)",
			label, a.Evaluated, a.Infeasible, b.Evaluated, b.Infeasible)
	}
	if len(a.Front) != len(b.Front) {
		t.Fatalf("%s: front sizes differ: %d vs %d", label, len(a.Front), len(b.Front))
	}
	for i := range a.Front {
		if !reflect.DeepEqual(a.Front[i], b.Front[i]) {
			t.Fatalf("%s: front point %d differs:\n%+v\nvs\n%+v", label, i, a.Front[i], b.Front[i])
		}
	}
}

// TestEvaluateBatchOrderAndDedup checks the batch contract: points come
// back in input order, duplicates coalesce to one evaluation, and Stats
// counts distinct configurations.
func TestEvaluateBatchOrderAndDedup(t *testing.T) {
	s := testSpace(5, 4)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	pe := NewParallelEvaluator(eval, 8)

	var configs []Config
	s.Iterate(func(c Config) bool {
		configs = append(configs, c.Clone(), c.Clone()) // every point twice
		return true
	})
	pts := pe.EvaluateBatch(configs)
	if len(pts) != len(configs) {
		t.Fatalf("got %d points for %d configs", len(pts), len(configs))
	}
	for i, p := range pts {
		if !reflect.DeepEqual(p.Config, configs[i]) {
			t.Fatalf("point %d is for config %v, want %v", i, p.Config, configs[i])
		}
		want, err := eval.Evaluate(configs[i])
		if p.Feasible != (err == nil) {
			t.Fatalf("point %d feasibility %v, want error=%v", i, p.Feasible, err)
		}
		if p.Feasible && !reflect.DeepEqual(p.Objs, want) {
			t.Fatalf("point %d objs %v, want %v", i, p.Objs, want)
		}
	}
	evaluated, infeasible := pe.Stats()
	if evaluated != 20 {
		t.Errorf("evaluated %d distinct configs, space has 20", evaluated)
	}
	if infeasible == 0 {
		t.Error("constrained space reported no infeasible configs")
	}
}

// TestParallelEvaluatorConcurrentBatches hammers one shared evaluator from
// many goroutines over an overlapping key set — the -race exercise of the
// sharded cache and of the per-worker instances: the evaluator is
// Forkable, and each instance evaluates through scratch of its own, so two
// batches on one worker's instance at once are a data race.
func TestParallelEvaluatorConcurrentBatches(t *testing.T) {
	s := testSpace(16, 16, 16)
	pe := NewParallelEvaluator(&scratchEvaluator{convexEvaluator{space: s}}, 4)
	var all []Config
	s.Iterate(func(c Config) bool {
		all = append(all, c.Clone())
		return true
	})
	ref := NewParallelEvaluator(&convexEvaluator{space: s}, 1).EvaluateBatch(all)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine submits a rotated view of the same keys.
			k := g * len(all) / 8
			batch := append(append([]Config{}, all[k:]...), all[:k]...)
			for i, p := range pe.EvaluateBatch(batch) {
				if want := ref[(i+k)%len(all)]; !reflect.DeepEqual(p.Objs, want.Objs) {
					t.Errorf("goroutine %d: point %v = %v, want %v", g, p.Config, p.Objs, want.Objs)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if evaluated, _ := pe.Stats(); evaluated != len(all) {
		t.Errorf("evaluated %d distinct configs, want %d", evaluated, len(all))
	}
}

// scratchEvaluator is a Forkable convexEvaluator whose instances, like the
// compiled pipeline's, evaluate through scratch of their own.
type scratchEvaluator struct{ convexEvaluator }

func (e *scratchEvaluator) Fork() Evaluator {
	return &scratchInstance{convexEvaluator: e.convexEvaluator}
}

type scratchInstance struct {
	convexEvaluator
	scratch Objectives
}

func (si *scratchInstance) Evaluate(c Config) (Objectives, error) {
	objs, err := si.convexEvaluator.Evaluate(c)
	if err != nil {
		return nil, err
	}
	si.scratch = append(si.scratch[:0], objs...)
	return si.scratch, nil
}

// TestConfigHashEqual checks the memo-key pair: equal configs hash and
// compare equal; gene and length perturbations change Equal (and, for
// these near-miss cases, the hash too).
func TestConfigHashEqual(t *testing.T) {
	c := Config{3, 0, 7, 2}
	if !c.Equal(Config{3, 0, 7, 2}) || c.Hash() != (Config{3, 0, 7, 2}).Hash() {
		t.Fatal("identical configs must hash and compare equal")
	}
	for _, d := range []Config{{3, 0, 7, 3}, {0, 3, 7, 2}, {3, 0, 7}, {3, 0, 7, 2, 0}} {
		if c.Equal(d) {
			t.Fatalf("Equal(%v, %v) = true", c, d)
		}
		if c.Hash() == d.Hash() {
			t.Fatalf("near-miss %v collides with %v (possible but indicates a weak hash)", d, c)
		}
	}
}

// countingEvaluator counts evaluations; used to prove exactly-once caching
// over two full passes of the space.
type countingEvaluator struct {
	inner Evaluator
	calls atomic.Int64
}

func (e *countingEvaluator) NumObjectives() int { return e.inner.NumObjectives() }
func (e *countingEvaluator) Evaluate(c Config) (Objectives, error) {
	e.calls.Add(1)
	return e.inner.Evaluate(c)
}

// TestMemoCollisionChain drives 1,728 distinct configurations through the
// sharded cache (so every shard's table grows and its arenas span several
// chunks) and checks each is evaluated exactly once and keeps its own
// result.
func TestMemoCollisionChain(t *testing.T) {
	s := testSpace(12, 12, 12)
	counting := &countingEvaluator{inner: &convexEvaluator{space: s}}
	pe := NewParallelEvaluator(counting, 4)
	var all []Config
	s.Iterate(func(c Config) bool {
		all = append(all, c.Clone())
		return true
	})
	// Two passes: the second must be served entirely from the cache.
	first := pe.EvaluateBatch(all)
	second := pe.EvaluateBatch(all)
	if got := counting.calls.Load(); got != int64(len(all)) {
		t.Fatalf("%d evaluator calls for %d distinct configs", got, len(all))
	}
	for i := range all {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Fatalf("config %v: cached point differs from first evaluation", all[i])
		}
		want, _ := (&convexEvaluator{space: s}).Evaluate(all[i])
		if !reflect.DeepEqual(first[i].Objs, want) {
			t.Fatalf("config %v: objs %v, want %v (collision cross-talk?)", all[i], first[i].Objs, want)
		}
	}
}

// gateEvaluator sums the genes of a configuration of any length; the
// evaluation of gated blocks until release is closed.
type gateEvaluator struct {
	gated   Config
	entered chan struct{}
	release chan struct{}
	calls   atomic.Int64
}

func (e *gateEvaluator) NumObjectives() int { return 2 }
func (e *gateEvaluator) Evaluate(c Config) (Objectives, error) {
	e.calls.Add(1)
	if c.Equal(e.gated) {
		close(e.entered)
		<-e.release
	}
	sum := 0
	for _, v := range c {
		sum += v
	}
	return Objectives{float64(sum), float64(len(c))}, nil
}

// TestMemoWaitersShareOneEvaluation parks goroutines on a configuration
// whose evaluation is in flight while other misses grow every shard's
// table, then checks that the waiters wake to the one published point.
func TestMemoWaitersShareOneEvaluation(t *testing.T) {
	gated := Config{7, 7, 7}
	eval := &gateEvaluator{gated: gated, entered: make(chan struct{}), release: make(chan struct{})}
	// Worker 0 owns the gated evaluation, workers 1 to waiters wait for
	// it, and the last worker evaluates the others.
	const waiters = 4
	pe := NewParallelEvaluator(eval, waiters+2)
	owner := make(chan Point)
	go func() { owner <- pe.evalFor(0, gated) }()
	<-eval.entered

	got := make(chan Point, waiters)
	for i := 0; i < waiters; i++ {
		go func() { got <- pe.evalFor(1+i, Config{7, 7, 7}) }()
	}
	var others []Config
	testSpace(10, 10, 10).Iterate(func(c Config) bool {
		if !c.Equal(gated) {
			others = append(others, c.Clone())
		}
		return true
	})
	for _, c := range others {
		pe.evalFor(waiters+1, c)
	}
	close(eval.release)

	want := <-owner
	for i := 0; i < waiters; i++ {
		if p := <-got; !reflect.DeepEqual(p, want) {
			t.Fatalf("waiter got %+v, owner %+v", p, want)
		}
	}
	if n := eval.calls.Load(); n != int64(len(others)+1) {
		t.Fatalf("%d evaluations for %d distinct configurations", n, len(others)+1)
	}
	if lookups, hits := pe.CacheStats(); hits != waiters || lookups != int64(len(others)+1+waiters) {
		t.Fatalf("cache stats: %d lookups, %d hits", lookups, hits)
	}
}

// TestMemoMixedLengths checks that configurations of several lengths
// share one evaluator: each keeps its own genes and result, once.
func TestMemoMixedLengths(t *testing.T) {
	eval := &gateEvaluator{gated: Config{-1}} // never drawn: no gate
	pe := NewParallelEvaluator(eval, 2)
	var configs []Config
	for n := 0; n < 5; n++ {
		for v := 0; v < 40; v++ {
			c := make(Config, n)
			for i := range c {
				c[i] = v + i
			}
			configs = append(configs, c)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i, p := range pe.EvaluateBatch(configs) {
			want, _ := eval.Evaluate(configs[i])
			if !p.Config.Equal(configs[i]) || !reflect.DeepEqual(p.Objs, want) || !p.Feasible {
				t.Fatalf("config %v: got %+v, want objs %v", configs[i], p, want)
			}
		}
	}
	if evaluated, _ := pe.Stats(); evaluated != 4*40+1 {
		t.Fatalf("evaluated %d distinct configurations, want %d", evaluated, 4*40+1)
	}
}

// shortEvaluator returns fewer objectives than it declares.
type shortEvaluator struct{}

func (shortEvaluator) NumObjectives() int                  { return 3 }
func (shortEvaluator) Evaluate(Config) (Objectives, error) { return Objectives{1}, nil }

// TestObjectiveCountMismatchPanics checks that a broken evaluator is
// reported instead of stored.
func TestObjectiveCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a 1-objective result from a 3-objective evaluator was accepted")
		}
	}()
	NewParallelEvaluator(shortEvaluator{}, 1).evalFor(0, Config{0})
}

// forkEvaluator records how many instances Fork produced and which
// instances evaluated, proving each worker gets (and keeps) its own.
type forkEvaluator struct {
	space *Space
	forks atomic.Int64
}

type forkInstance struct {
	inner convexEvaluator
	busy  atomic.Bool // trips if two goroutines share an instance
}

func (f *forkEvaluator) NumObjectives() int { return 2 }
func (f *forkEvaluator) Evaluate(c Config) (Objectives, error) {
	return (&convexEvaluator{space: f.space}).Evaluate(c)
}
func (f *forkEvaluator) Fork() Evaluator {
	f.forks.Add(1)
	return &forkInstance{inner: convexEvaluator{space: f.space}}
}

func (fi *forkInstance) NumObjectives() int { return 2 }
func (fi *forkInstance) Evaluate(c Config) (Objectives, error) {
	if !fi.busy.CompareAndSwap(false, true) {
		panic("dse test: two goroutines entered one forked instance")
	}
	defer fi.busy.Store(false)
	return fi.inner.Evaluate(c)
}

// TestForkablePerWorkerInstances checks the Forkable contract: the runtime
// forks one instance per worker and never runs two goroutines on the same
// instance concurrently.
func TestForkablePerWorkerInstances(t *testing.T) {
	s := testSpace(8, 8)
	fe := &forkEvaluator{space: s}
	pe := NewParallelEvaluator(fe, 4)
	if got := fe.forks.Load(); got != 4 {
		t.Fatalf("NewParallelEvaluator forked %d instances for 4 workers", got)
	}
	var all []Config
	s.Iterate(func(c Config) bool {
		all = append(all, c.Clone())
		return true
	})
	ref := NewParallelEvaluator(&convexEvaluator{space: s}, 1).EvaluateBatch(all)
	got := pe.EvaluateBatch(all)
	for i := range ref {
		if !reflect.DeepEqual(ref[i].Objs, got[i].Objs) || ref[i].Feasible != got[i].Feasible {
			t.Fatalf("forked batch point %d differs: %+v vs %+v", i, got[i], ref[i])
		}
	}
}

// intoEvaluator implements the scratch-objectives fast path.
type intoEvaluator struct {
	convexEvaluator
	intoCalls atomic.Int64
}

func (e *intoEvaluator) EvaluateInto(c Config, objs Objectives) error {
	e.intoCalls.Add(1)
	got, err := e.convexEvaluator.Evaluate(c)
	if err != nil {
		return err
	}
	copy(objs, got)
	return nil
}

// TestIntoEvaluatorDispatch checks that the runtime routes cache misses
// through EvaluateInto when available and stores equivalent points.
func TestIntoEvaluatorDispatch(t *testing.T) {
	s := testSpace(5, 5)
	ie := &intoEvaluator{convexEvaluator: convexEvaluator{space: s}}
	pe := NewParallelEvaluator(ie, 2)
	var all []Config
	s.Iterate(func(c Config) bool {
		all = append(all, c.Clone())
		return true
	})
	got := pe.EvaluateBatch(all)
	if ie.intoCalls.Load() == 0 {
		t.Fatal("EvaluateInto never called: runtime is not using the scratch path")
	}
	for i := range all {
		want, _ := (&convexEvaluator{space: s}).Evaluate(all[i])
		if !reflect.DeepEqual(got[i].Objs, want) {
			t.Fatalf("point %d objs %v, want %v", i, got[i].Objs, want)
		}
	}
}

// TestEvalCacheHitZeroAllocs pins the memo-cache rework: a cache hit keys
// on the packed uint64 hash and allocates nothing (the old string key cost
// one allocation per lookup).
func TestEvalCacheHitZeroAllocs(t *testing.T) {
	s := testSpace(6, 6)
	pe := NewParallelEvaluator(&convexEvaluator{space: s}, 2)
	c := Config{3, 4}
	pe.evalFor(0, c) // warm the cache
	allocs := testing.AllocsPerRun(500, func() {
		pe.evalFor(0, c)
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f objects, want 0", allocs)
	}
}

// TestNSGA2WorkerEquivalence is the headline determinism guarantee: the
// parallel path returns the sequential path's front bit for bit.
func TestNSGA2WorkerEquivalence(t *testing.T) {
	s := testSpace(12, 4, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	search := Search{Algorithm: "nsga2", Seed: 9, Workers: 1, NSGA2: &NSGA2Config{PopulationSize: 24, Generations: 15}}
	seq, err := search.Run(s, eval, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		search.Workers = workers
		par, err := search.Run(s, eval, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, seq, par, "nsga2")
	}
}

// TestMOSAWorkerEquivalence checks the per-chain seeding and chain-order
// archive merge: concurrent chains reproduce the sequential run.
func TestMOSAWorkerEquivalence(t *testing.T) {
	s := testSpace(15, 4)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	search := Search{Algorithm: "mosa", Seed: 5, Workers: 1, MOSA: &MOSAConfig{Iterations: 2000, Restarts: 4}}
	seq, err := search.Run(s, eval, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		search.Workers = workers
		par, err := search.Run(s, eval, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, seq, par, "mosa")
	}
}

// TestExhaustiveWorkerEquivalence checks batched enumeration.
func TestExhaustiveWorkerEquivalence(t *testing.T) {
	s := testSpace(9, 5, 4)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	seq, err := Search{Algorithm: "exhaustive", Workers: 1, MaxPoints: 1000}.Run(s, eval, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Search{Algorithm: "exhaustive", Workers: 8, MaxPoints: 1000}.Run(s, eval, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, seq, par, "exhaustive")
	// And the table's single-worker entry matches too.
	wrapped, err := Search{Algorithm: "exhaustive", MaxPoints: 1000, Workers: 1}.Run(s, eval, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, seq, wrapped, "exhaustive table entry")
}

// TestRandomSearchWorkerEquivalence checks the pre-drawn batch: the RNG
// stream never observes the worker count.
func TestRandomSearchWorkerEquivalence(t *testing.T) {
	s := testSpace(11, 3)
	eval := &convexEvaluator{space: s}
	seq, err := Search{Algorithm: "random", Seed: 1, Workers: 1, Budget: 400}.Run(s, eval, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Search{Algorithm: "random", Seed: 1, Workers: 8, Budget: 400}.Run(s, eval, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, seq, par, "random")
}

// TestEvaluateBatchCallerConfigs pins the ownership contract: misses and
// hits hand back the caller's own slices, and the memo keeps no alias of
// them, so overwriting a buffer does not disturb the entry it was
// evaluated as.
func TestEvaluateBatchCallerConfigs(t *testing.T) {
	s := testSpace(6, 6)
	counting := &countingEvaluator{inner: &convexEvaluator{space: s}}
	pe := NewParallelEvaluator(counting, 2)
	configs := []Config{{1, 2}, {3, 4}, {1, 2}, {5, 0}}
	var first []Point
	for pass := 0; pass < 2; pass++ { // misses, then hits
		pts := pe.EvaluateBatch(configs)
		for i, p := range pts {
			if len(p.Config) != len(configs[i]) || &p.Config[0] != &configs[i][0] {
				t.Fatalf("pass %d: point %d does not carry the caller's slice", pass, i)
			}
		}
		if pass == 0 {
			first = pts
		}
	}
	if p := pe.evalFor(0, configs[3]); &p.Config[0] != &configs[3][0] {
		t.Fatal("evalFor does not return the caller's slice")
	}
	want := append(Objectives(nil), first[1].Objs...)
	configs[1][0], configs[1][1] = 0, 0
	p := pe.evalFor(0, Config{3, 4})
	if got := counting.calls.Load(); got != 3 {
		t.Fatalf("%d evaluations for 3 distinct configurations", got)
	}
	if !reflect.DeepEqual(p.Objs, want) {
		t.Fatalf("{3 4} after its buffer was overwritten: objs %v, want %v", p.Objs, want)
	}
}

// TestMemoWideGenes runs configurations the packed arena cannot hold, a
// gene of 256 or more and another gene count, through the memo beside
// ones it can: each is evaluated once at workers 1 and 4, and NSGA-II
// over a 300-value parameter returns the same front at both.
func TestMemoWideGenes(t *testing.T) {
	s := testSpace(300, 3)
	var configs []Config
	s.Iterate(func(c Config) bool {
		configs = append(configs, c.Clone())
		return true
	})
	configs = append(configs, Config{299}, Config{7}, Config{1, 2, 3}, Config{299, 2, 0})
	distinct := len(configs)
	configs = append(configs, Config{299, 2}, Config{7}, Config{299, 2, 0}) // repeats
	direct := &gateEvaluator{gated: Config{-1}}
	for _, workers := range []int{1, 4} {
		eval := &gateEvaluator{gated: Config{-1}}
		pe := NewParallelEvaluator(eval, workers)
		for pass := 0; pass < 2; pass++ {
			for i, p := range pe.EvaluateBatch(configs) {
				want, _ := direct.Evaluate(configs[i])
				if !p.Feasible || !reflect.DeepEqual(p.Objs, want) {
					t.Fatalf("workers %d: config %v: objs %v, want %v", workers, configs[i], p.Objs, want)
				}
			}
		}
		if got := eval.calls.Load(); got != int64(distinct) {
			t.Fatalf("workers %d: %d evaluations for %d distinct configurations", workers, got, distinct)
		}
	}

	var ref *Result
	for _, workers := range []int{1, 4} {
		counting := &countingEvaluator{inner: &convexEvaluator{space: s}}
		res, err := Search{Algorithm: "nsga2", Seed: 4, Workers: workers,
			NSGA2: &NSGA2Config{PopulationSize: 32, Generations: 20}}.Run(s, counting, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := counting.calls.Load(); got != int64(res.Evaluated) {
			t.Fatalf("workers %d: %d evaluator calls, Evaluated %d", workers, got, res.Evaluated)
		}
		wide := false
		for _, p := range res.Front {
			wide = wide || p.Config[0] > 255
		}
		if !wide {
			t.Fatalf("workers %d: no front point has a gene above 255", workers)
		}
		if ref == nil {
			ref = res
			continue
		}
		sameResult(t, ref, res, "nsga2 over a 300-value parameter")
	}
}

// sumEvaluator is a cheap, pure IntoEvaluator over configurations of any
// length and gene values: two weighted gene sums, infeasible when the
// first is a multiple of 7.
type sumEvaluator struct{}

func (sumEvaluator) NumObjectives() int { return 2 }
func (e sumEvaluator) Evaluate(c Config) (Objectives, error) {
	objs := make(Objectives, 2)
	return objs, e.EvaluateInto(c, objs)
}
func (sumEvaluator) EvaluateInto(c Config, objs Objectives) error {
	var a, b int
	for i, v := range c {
		a += v
		b += (i + 1) * v * v
	}
	if a%7 == 0 {
		return core.Infeasible("sum %d", a)
	}
	objs[0], objs[1] = float64(a), float64(b)+0.5*float64(len(c))
	return nil
}

// fuzzBatch decodes data into one batch of configurations of 1–4 genes in
// [−2, 300]: an opcode byte with its top bit set repeats an earlier
// configuration (in a slice of its own), otherwise it gives the gene
// count, and each gene takes the next two bytes.
func fuzzBatch(data []byte) []Config {
	var out []Config
	for len(data) > 0 && len(out) < 512 {
		op := data[0]
		data = data[1:]
		if op&0x80 != 0 && len(out) > 0 {
			out = append(out, out[int(op&0x7f)%len(out)].Clone())
			continue
		}
		c := make(Config, 1+int(op)%4)
		for i := range c {
			v := 0
			if len(data) >= 2 {
				v = int(data[0]) | int(data[1])<<8
				data = data[2:]
			}
			c[i] = v%303 - 2
		}
		out = append(out, c)
	}
	return out
}

// FuzzEvaluateBatch drives arbitrary batches across the boundary of the
// packed arena (genes outside [0, 256), several lengths, repeats) through
// fresh evaluators at workers 1 and 3. Every point carries the caller's
// slice and a direct evaluation's objectives, each distinct configuration
// is evaluated once, both worker counts agree, and after the caller has
// overwritten its buffers with other configurations and back, a second
// pass evaluates nothing. The seeds are in testdata/fuzz/FuzzEvaluateBatch.
func FuzzEvaluateBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		configs := fuzzBatch(data)
		if len(configs) == 0 {
			return
		}
		other := make([]Config, len(configs))
		seen := map[string]bool{}
		for i, c := range configs {
			seen[c.Key()] = true
			other[i] = c.Clone()
			for j := range other[i] {
				other[i][j] = 298 - c[j]
			}
		}
		distinct := len(seen)
		for _, c := range other {
			seen[c.Key()] = true
		}
		var ref []Point
		for _, workers := range []int{1, 3} {
			pe := NewParallelEvaluator(sumEvaluator{}, workers)
			pts := pe.EvaluateBatch(configs)
			for i, p := range pts {
				if len(p.Config) != len(configs[i]) || &p.Config[0] != &configs[i][0] {
					t.Fatalf("workers %d: point %d does not carry the caller's slice", workers, i)
				}
				want, err := sumEvaluator{}.Evaluate(configs[i])
				if p.Feasible != (err == nil) || p.Feasible && !reflect.DeepEqual(p.Objs, want) {
					t.Fatalf("workers %d: config %v: got %+v, want objs %v, error %v", workers, configs[i], p, want, err)
				}
				if ref != nil && (p.Feasible != ref[i].Feasible || !reflect.DeepEqual(p.Objs, ref[i].Objs)) {
					t.Fatalf("config %v: workers 1 and 3 disagree: %+v vs %+v", configs[i], ref[i], p)
				}
			}
			if evaluated, _ := pe.Stats(); evaluated != distinct {
				t.Fatalf("workers %d: %d evaluations for %d distinct configurations", workers, evaluated, distinct)
			}
			saved := make([]Config, len(configs))
			for i, c := range configs {
				saved[i] = c.Clone()
				copy(c, other[i])
			}
			pe.EvaluateBatch(configs)
			for i, c := range configs {
				copy(c, saved[i])
			}
			before, _ := pe.Stats()
			if before != len(seen) {
				t.Fatalf("workers %d: %d evaluations for %d distinct configurations", workers, before, len(seen))
			}
			for i, p := range pe.EvaluateBatch(configs) {
				if p.Feasible != pts[i].Feasible || !reflect.DeepEqual(p.Objs, pts[i].Objs) {
					t.Fatalf("workers %d: config %v: second pass %+v, first %+v", workers, configs[i], p, pts[i])
				}
			}
			if after, _ := pe.Stats(); after != before {
				t.Fatalf("workers %d: second pass evaluated %d configurations", workers, after-before)
			}
			ref = pts
		}
	})
}
