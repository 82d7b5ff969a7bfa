package dse

import (
	"testing"
)

// TestStatsSinkAllAlgorithms is the StatsSink contract on every algorithm:
// the sink fires at each boundary, counters are monotone, the final sample
// reaches the last boundary, cache stats are populated and consistent
// (lookups = hits + evaluated, monotone), and the zero-copy front is
// non-empty once anything was evaluated. It also pins that Stats and
// Progress observe the same boundaries when both are attached.
func TestStatsSinkAllAlgorithms(t *testing.T) {
	s := testSpace(12, 4, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	sBig := testSpace(20, 18, 6)
	evalBig := &constrainedEvaluator{inner: &convexEvaluator{space: sBig}}

	algorithms := []struct {
		search Search
		space  *Space
		eval   Evaluator
	}{
		{Search{Algorithm: "nsga2", Seed: 9, Workers: 2, NSGA2: &NSGA2Config{PopulationSize: 16, Generations: 12}}, s, eval},
		{Search{Algorithm: "mosa", Seed: 5, Workers: 2, MOSA: &MOSAConfig{Iterations: 4000, Restarts: 4}}, s, eval},
		{Search{Algorithm: "exhaustive", Workers: 2, MaxPoints: 1000000}, sBig, evalBig},
		{Search{Algorithm: "random", Seed: 3, Workers: 2, Budget: 3000}, sBig, evalBig},
	}

	for _, alg := range algorithms {
		name := alg.search.Algorithm
		t.Run(name, func(t *testing.T) {
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
			if len(stats) == 0 {
				t.Fatal("stats sink never fired")
			}
			if len(stats) != len(progressSteps) {
				t.Fatalf("stats fired %d times, progress %d — must observe the same boundaries",
					len(stats), len(progressSteps))
			}
			prev := Stats{Step: 0}
			for i, st := range stats {
				if st.Algorithm != name {
					t.Fatalf("sample %d: algorithm %q, want %q", i, st.Algorithm, name)
				}
				if want := alg.search.Steps(alg.space); st.TotalSteps != want {
					t.Fatalf("sample %d: %d total steps, Search.Steps says %d", i, st.TotalSteps, want)
				}
				if st.Step != progressSteps[i] {
					t.Fatalf("sample %d: stats step %d, progress step %d", i, st.Step, progressSteps[i])
				}
				if st.Step <= prev.Step {
					t.Fatalf("sample %d: step %d not increasing from %d", i, st.Step, prev.Step)
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
				if st.TotalSteps <= 0 || st.Step > st.TotalSteps {
					t.Fatalf("sample %d: step %d of %d", i, st.Step, st.TotalSteps)
				}
				prev = st
			}
			// Exhaustive flushes a trailing partial batch after its last
			// boundary (Progress behaves identically), so the final sample
			// may sit one step and one partial batch short of the result.
			last := stats[len(stats)-1]
			if last.Step < last.TotalSteps-1 {
				t.Fatalf("final sample at step %d of %d", last.Step, last.TotalSteps)
			}
			if last.Evaluated > res.Evaluated || last.Infeasible > res.Infeasible {
				t.Fatalf("final sample counts (%d, %d) exceed result (%d, %d)",
					last.Evaluated, last.Infeasible, res.Evaluated, res.Infeasible)
			}
			if last.Step == last.TotalSteps && last.Evaluated != res.Evaluated {
				t.Fatalf("final-boundary sample evaluated %d, result %d", last.Evaluated, res.Evaluated)
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
	_, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 12, Generations: 10, Seed: 3}, Options{
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
