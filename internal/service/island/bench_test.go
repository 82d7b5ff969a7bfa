package island

import (
	"context"
	"fmt"
	"testing"
	"time"

	"wsndse/internal/dse"
)

// latencyEval models the deployment the island tier exists for:
// evaluations with real latency (a network simulator run, an external
// co-simulator, hardware-in-the-loop) rather than pure in-process
// arithmetic. Each island drives its evaluations sequentially
// (Workers=1), so overlapping islands — not evaluator workers — is the
// axis that buys throughput.
type latencyEval struct {
	inner testEval
	delay time.Duration
}

func (e *latencyEval) NumObjectives() int { return 2 }
func (e *latencyEval) Evaluate(c dse.Config) (dse.Objectives, error) {
	time.Sleep(e.delay)
	return e.inner.Evaluate(c)
}

// BenchmarkDistributedThroughput measures merged-search throughput
// (evaluations per second across all islands) at 1/2/4/8 islands on a
// fixed scenario with 100µs evaluation latency. The acceptance bar is
// >1.5× at 4 islands over 1.
func BenchmarkDistributedThroughput(b *testing.B) {
	space := testSpace(12, 4, 3)
	eval := &latencyEval{inner: testEval{space: space}, delay: 100 * time.Microsecond}
	for _, islands := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("islands/%d", islands), func(b *testing.B) {
			job := Job{JobID: "bench", Search: dse.Search{
				Algorithm: "nsga2",
				NSGA2:     &dse.NSGA2Config{PopulationSize: 32, Generations: 20},
				Seed:      11,
				Workers:   1,
			}}
			cfg := Config{Islands: islands, Interval: 5, Migrants: 4}
			totalEvals := 0
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				c, err := New(cfg, job, space, eval)
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				totalEvals += res.Evaluated
			}
			elapsed := time.Since(start).Seconds()
			b.StopTimer()
			if elapsed > 0 {
				b.ReportMetric(float64(totalEvals)/elapsed, "evals/s")
			}
		})
	}
}
