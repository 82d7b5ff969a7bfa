package dse

import (
	"testing"
)

// TestStatsSinkAllAlgorithms is the StatsSink contract on every algorithm:
// the sink fires at every boundary, 1 through Search.Steps, the last
// included, counters are monotone, the final sample's counts are the
// Result's, cache stats are populated and consistent (lookups = hits +
// evaluated, monotone), and the zero-copy front is non-empty once
// anything was evaluated. It also pins that Stats and Progress observe
// the same boundaries when both are attached. Exhaustive and random
// search run over 2,160 points (three batches, the last partial) and
// exhaustive search also over 36 (one partial batch).
func TestStatsSinkAllAlgorithms(t *testing.T) {
	s := testSpace(12, 4, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	sBig := testSpace(20, 18, 6)
	evalBig := &constrainedEvaluator{inner: &convexEvaluator{space: sBig}}
	sSmall := testSpace(6, 6)
	evalSmall := &constrainedEvaluator{inner: &convexEvaluator{space: sSmall}}

	algorithms := []struct {
		name   string
		search Search
		space  *Space
		eval   Evaluator
	}{
		{"nsga2", Search{Algorithm: "nsga2", Seed: 9, Workers: 2,
			NSGA2: &NSGA2Config{PopulationSize: 16, Generations: 12}}, s, eval},
		{"mosa", Search{Algorithm: "mosa", Seed: 5, Workers: 2, MOSA: &MOSAConfig{Iterations: 4000, Restarts: 4}}, s, eval},
		{"exhaustive", Search{Algorithm: "exhaustive", Workers: 2, MaxPoints: 1000000}, sBig, evalBig},
		{"exhaustive-one-batch", Search{Algorithm: "exhaustive", Workers: 2}, sSmall, evalSmall},
		{"random", Search{Algorithm: "random", Seed: 3, Workers: 2, Budget: 3000}, sBig, evalBig},
	}

	for _, alg := range algorithms {
		name := alg.search.Algorithm
		t.Run(alg.name, func(t *testing.T) {
			var stats []Stats
			var progressSteps []int
			opts := Options{
				Stats: func(st Stats) {
					// The front is shared storage: length is all a sink may
					// retain without copying.
					st.Front = st.Front[:len(st.Front):len(st.Front)]
					stats = append(stats, st)
				},
				Progress: func(p Progress) { progressSteps = append(progressSteps, p.Step) },
			}
			res, err := alg.search.Run(alg.space, alg.eval, opts)
			if err != nil {
				t.Fatal(err)
			}
			steps := alg.search.Steps(alg.space)
			if len(stats) != steps {
				t.Fatalf("stats sink fired %d times, want %d (every boundary)", len(stats), steps)
			}
			if len(stats) != len(progressSteps) {
				t.Fatalf("stats fired %d times, progress %d — must observe the same boundaries",
					len(stats), len(progressSteps))
			}
			var prev Stats
			for i, st := range stats {
				if st.Algorithm != name {
					t.Fatalf("sample %d: algorithm %q, want %q", i, st.Algorithm, name)
				}
				if st.TotalSteps != steps {
					t.Fatalf("sample %d: %d total steps, Search.Steps says %d", i, st.TotalSteps, steps)
				}
				if st.Step != progressSteps[i] {
					t.Fatalf("sample %d: stats step %d, progress step %d", i, st.Step, progressSteps[i])
				}
				if st.Step != i+1 {
					t.Fatalf("sample %d: step %d, want %d", i, st.Step, i+1)
				}
				if st.Evaluated < prev.Evaluated || st.Infeasible < prev.Infeasible {
					t.Fatalf("sample %d: counters regressed: %+v after %+v", i, st, prev)
				}
				if st.CacheLookups < prev.CacheLookups || st.CacheHits < prev.CacheHits {
					t.Fatalf("sample %d: cache counters regressed: %+v after %+v", i, st, prev)
				}
				if st.CacheHits > st.CacheLookups {
					t.Fatalf("sample %d: %d hits out of %d lookups", i, st.CacheHits, st.CacheLookups)
				}
				if st.CacheLookups < int64(st.Evaluated) {
					t.Fatalf("sample %d: %d lookups < %d evaluations", i, st.CacheLookups, st.Evaluated)
				}
				if st.Evaluated > 0 && len(st.Front) == 0 {
					t.Fatalf("sample %d: empty front after %d evaluations", i, st.Evaluated)
				}
				prev = st
			}
			if last := stats[len(stats)-1]; last.Evaluated != res.Evaluated || last.Infeasible != res.Infeasible {
				t.Fatalf("final sample counts (%d, %d), result (%d, %d)",
					last.Evaluated, last.Infeasible, res.Evaluated, res.Infeasible)
			}
		})
	}
}

// TestStatsSinkCacheHits pins that revisiting configurations shows up as
// memo-cache hits: a second identical NSGA-II run on a tiny space draws
// mostly cached points, so hits must grow across generations.
func TestStatsSinkCacheHits(t *testing.T) {
	s := testSpace(4, 3) // 12 configurations: a long run must revisit
	eval := &convexEvaluator{space: s}
	var last Stats
	_, err := Search{Algorithm: "nsga2", Seed: 3, NSGA2: &NSGA2Config{PopulationSize: 12, Generations: 10}}.Run(s, eval, Options{
		Stats: func(st Stats) { last = st; last.Front = nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.CacheHits == 0 {
		t.Fatal("a 10-generation run over 12 configurations produced no cache hits")
	}
	if last.Evaluated > 12 {
		t.Fatalf("evaluated %d distinct configurations in a 12-point space", last.Evaluated)
	}
	if got := last.CacheLookups - last.CacheHits; got != int64(last.Evaluated) {
		t.Fatalf("lookups-hits = %d, want evaluated = %d", got, last.Evaluated)
	}
}
