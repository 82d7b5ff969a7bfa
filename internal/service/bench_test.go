package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"wsndse/internal/dse"
)

// BenchmarkServiceThroughput measures end-to-end jobs/s through the
// Manager — submit, schedule, compile, search, store — at 1, 4 and 16
// concurrent job workers. Each job is a small seeded NSGA-II exploration
// of the case-study ward, so the number tracks scheduling + pipeline
// overhead, not raw evaluation speed (bench_test.go at the repo root
// owns that).
func BenchmarkServiceThroughput(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("jobs%d", workers), func(b *testing.B) {
			m := newTestManager(b, Config{Workers: workers, QueueLimit: workers * 4})
			defer m.Close()
			ctx := context.Background()
			start := time.Now()
			b.ResetTimer()
			inFlight := make([]string, 0, workers)
			drain := func() {
				for _, id := range inFlight {
					info, err := m.Wait(ctx, id)
					if err != nil {
						b.Fatal(err)
					}
					if info.Status != StatusDone {
						b.Fatalf("job %s: %s (%s)", id, info.Status, info.Error)
					}
				}
				inFlight = inFlight[:0]
			}
			for i := 0; i < b.N; i++ {
				info, err := m.Submit(Spec{
					Scenario:  "ecg-ward",
					Algorithm: AlgoNSGA2,
					Seed:      int64(i),
					Workers:   1,
					NSGA2:     &dse.NSGA2Config{PopulationSize: 8, Generations: 4},
				})
				if err != nil {
					b.Fatal(err)
				}
				inFlight = append(inFlight, info.ID)
				if len(inFlight) == workers {
					drain()
				}
			}
			drain()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "jobs/s")
		})
	}
}

// BenchmarkSupervisedJobOverhead is BenchmarkServiceThroughput/jobs1's
// workload run with the supervision features armed on every job —
// MaxRetries budget, a deadline clock, panic recovery, disarmed
// faultinject hook points — and none of them firing. The jobs/s must
// stay within ~2% of ServiceThroughput/jobs1: crash-safety is paid for
// by crashing jobs, not by every healthy one.
func BenchmarkSupervisedJobOverhead(b *testing.B) {
	m := newTestManager(b, Config{Workers: 1, QueueLimit: 4})
	defer m.Close()
	ctx := context.Background()
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := m.Submit(Spec{
			Scenario:        "ecg-ward",
			Algorithm:       AlgoNSGA2,
			Seed:            int64(i),
			Workers:         1,
			MaxRetries:      2,
			DeadlineSeconds: 60,
			NSGA2:           &dse.NSGA2Config{PopulationSize: 8, Generations: 4},
		})
		if err != nil {
			b.Fatal(err)
		}
		final, err := m.Wait(ctx, info.ID)
		if err != nil {
			b.Fatal(err)
		}
		if final.Status != StatusDone || final.Attempts != 1 {
			b.Fatalf("job %s: %s after %d attempts (%s)", info.ID, final.Status, final.Attempts, final.Error)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "jobs/s")
}

// BenchmarkServiceThroughputObs is BenchmarkServiceThroughput/jobs1's
// workload plus an obs file per job. Sampling itself — the StatsSink on
// every boundary, the rate-limited sampler, the live ring — is always
// on and already inside the jobs1 baseline; its per-boundary cost is
// measured by BenchmarkSamplerBoundary and gated by
// TestSamplerBoundaryZeroAlloc. What this benchmark adds is only the
// per-job telemetry file, so its delta against jobs1 measures the host
// filesystem's file-create cost, not sampling: the writer goroutine
// keeps that I/O off the boundary path, overlapping it with the next
// job's search whenever a spare CPU exists. (On this benchmark's
// sub-millisecond jobs a container overlay filesystem can spend more
// kernel CPU creating the file than the whole search costs; a real
// deployment's jobs run seconds to hours against one file open.)
func BenchmarkServiceThroughputObs(b *testing.B) {
	m := newTestManager(b, Config{Workers: 1, QueueLimit: 4, ObsDir: b.TempDir()})
	defer m.Close()
	ctx := context.Background()
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := m.Submit(Spec{
			Scenario:  "ecg-ward",
			Algorithm: AlgoNSGA2,
			Seed:      int64(i),
			Workers:   1,
			NSGA2:     &dse.NSGA2Config{PopulationSize: 8, Generations: 4},
		})
		if err != nil {
			b.Fatal(err)
		}
		final, err := m.Wait(ctx, info.ID)
		if err != nil {
			b.Fatal(err)
		}
		if final.Status != StatusDone {
			b.Fatalf("job %s: %s (%s)", info.ID, final.Status, final.Error)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "jobs/s")
}

// BenchmarkSamplerBoundary measures what one dse search boundary costs
// the telemetry sampler — the price every generation/segment of every
// job pays. "limited" is the steady state between samples (the rate
// limiter turns the boundary away: one mutex, one map watermark, one
// clock read — and zero allocations, gated by
// TestSamplerBoundaryZeroAlloc); "sampled" records a row (hypervolume,
// cached memstats, ring append) and is bounded by the sample interval
// to at most ~4/s per job in production.
func BenchmarkSamplerBoundary(b *testing.B) {
	front := []dse.Point{
		{Objs: dse.Objectives{1, 4}},
		{Objs: dse.Objectives{2, 3}},
		{Objs: dse.Objectives{3, 2}},
		{Objs: dse.Objectives{4, 1}},
	}
	run := func(b *testing.B, interval time.Duration) {
		s := newJobSampler(newMetrics(), "bench", "ecg-ward", false, "", interval, func(string, ...any) {})
		// One warmup boundary so the per-island watermark entry exists:
		// even a -benchtime 1x run must report the steady state the
		// zero-alloc gate enforces, not the first call's map insert.
		s.observeSearch(dse.Stats{Step: 1, TotalSteps: 1 << 30, Front: front})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.observeSearch(dse.Stats{
				Step: 1, TotalSteps: 1 << 30, Evaluated: i, Infeasible: i / 8,
				Front: front, CacheHits: int64(i), CacheLookups: int64(2 * i),
			})
		}
	}
	b.Run("limited", func(b *testing.B) { run(b, time.Hour) })
	b.Run("sampled", func(b *testing.B) { run(b, time.Nanosecond) })
}

// BenchmarkSSEFanout measures the event hub publishing one progress event
// with N followers reading its history — the per-generation cost a
// popular job pays with many SSE watchers attached.
func BenchmarkSSEFanout(b *testing.B) {
	for _, subs := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("subs%d", subs), func(b *testing.B) {
			var h hub
			var wg sync.WaitGroup
			wg.Add(subs)
			for s := 0; s < subs; s++ {
				go func() {
					defer wg.Done()
					_ = h.follow(context.Background(), 0, func(Event) bool { return true })
				}()
			}
			p := &ProgressInfo{Step: 1, TotalSteps: 100, Evaluated: 512, FrontSize: 32}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.publish(Event{Type: "progress", Progress: p})
			}
			b.StopTimer()
			h.close()
			wg.Wait()
		})
	}
}
