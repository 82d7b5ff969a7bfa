package experiments

import (
	"context"
	"io"

	"wsndse/internal/dse"
)

// Report is the interface every experiment result implements: a text
// renderer and a verification of the headline claims it reproduces.
type Report interface {
	Render(w io.Writer)
	Check() error
}

// Job is one experiment harness, deferred so the runner controls when (and
// on which goroutine) it executes. Run must be self-contained: the
// harnesses in this package share no mutable state, so any subset can
// execute concurrently. The context is the runner's
// cancellation signal; harnesses that drive long searches should thread it
// into dse.Options, and short harnesses may ignore it (the runner then
// cancels at job granularity: started jobs finish, unstarted jobs are
// skipped).
type Job struct {
	Name string
	Run  func(ctx context.Context) (Report, error)
}

// Outcome pairs a job with its result. Exactly one of Report and Err is
// set; a job skipped by cancellation carries the context's error.
type Outcome struct {
	Name   string
	Report Report
	Err    error
}

// RunJobsContext executes the jobs on at most workers goroutines
// (workers <= 0 selects GOMAXPROCS) and returns the outcomes in job order
// regardless of completion order, so rendering stays deterministic however
// the harnesses are scheduled. Jobs whose harnesses take a Workers knob
// (Fig5, the ϑ ablation) may additionally batch their evaluations across
// dse.ParallelEvaluator, so total concurrency can reach jobs × evaluation
// workers; worker counts never change any job's results.
//
// Wall-clock-sensitive harnesses (Speed) measure their own timing and will
// read slower when co-scheduled with other jobs on a loaded machine; run
// those in their own RunJobsContext call (as cmd/wsn-experiments does)
// when the absolute throughput number matters.
//
// A job that has not started when ctx is cancelled is skipped and its
// Outcome carries ctx.Err(); jobs already running receive the context and
// finish on their own terms (immediately, for harnesses that thread it
// into their search loops). Completed outcomes are always returned —
// cancellation flushes partial results, it never discards them.
func RunJobsContext(ctx context.Context, jobs []Job, workers int) []Outcome {
	outs := make([]Outcome, len(jobs))
	dse.ForEach(len(jobs), workers, func(i int) {
		if err := ctx.Err(); err != nil {
			outs[i] = Outcome{Name: jobs[i].Name, Err: err}
			return
		}
		r, err := jobs[i].Run(ctx)
		outs[i] = Outcome{Name: jobs[i].Name, Report: r, Err: err}
	})
	return outs
}
