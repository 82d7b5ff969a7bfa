package dse

import (
	"context"
	"errors"
	"fmt"
)

// Progress is one search-boundary snapshot, delivered to a ProgressSink.
// The unit of Step depends on the algorithm: NSGA-II counts completed
// generations, MOSA completed chain segments, exhaustive and random
// search completed evaluation batches. Front is the archive's own
// storage, as in Stats: valid only for the duration of the call and
// strictly read-only. A sink that keeps the front past its return must
// copy it, Points included: their genes are the archive's buffers, which
// it recycles, and their objectives alias the memo's objective arena.
type Progress struct {
	Algorithm  string
	Step       int // boundaries completed so far
	TotalSteps int // boundaries the full run will reach
	Evaluated  int // distinct configurations evaluated so far
	Infeasible int // of those, constraint violations
	Front      []Point
}

// ProgressSink receives Progress snapshots at search boundaries. Sinks run
// synchronously on the search goroutine between generations/segments —
// never inside the allocation-free hot loops — so a slow sink slows the
// search but cannot corrupt it. A nil sink costs nothing.
type ProgressSink func(Progress)

// Stats is one boundary-level search-health snapshot, delivered to a
// StatsSink. It is the telemetry sibling of Progress, built for
// samplers that fire every boundary: Front is, as in Progress, the
// archive's own sorted storage — genes in buffers the archive recycles,
// objectives in the memo's arena, valid only for the duration of the call
// and strictly read-only — so emitting a Stats allocates nothing on the
// NSGA-II/exhaustive/random paths. CacheHits/CacheLookups expose the
// memo cache (lookups = hits + distinct evaluations), the signal that
// tells an operator whether a search is still discovering or mostly
// revisiting.
type Stats struct {
	Algorithm    string
	Step         int // boundaries completed so far
	TotalSteps   int
	Evaluated    int // distinct configurations evaluated so far
	Infeasible   int
	Front        []Point // shared storage — do not retain or mutate
	CacheHits    int64   // memo-cache hits so far
	CacheLookups int64   // memo-cache lookups so far
}

// StatsSink receives Stats at every search boundary. Like ProgressSink
// it runs synchronously on the search goroutine, outside the
// allocation-free hot loops; a nil sink costs nothing. Sinks that need
// the front beyond the call must copy it.
type StatsSink func(Stats)

// CheckpointFunc persists one Snapshot. A non-nil error aborts the run:
// the search returns its partial result alongside the error, on the theory
// that a service that cannot persist checkpoints should not silently keep
// burning the evaluation budget it promised to make resumable.
type CheckpointFunc func(*Snapshot) error

// Options carries the cross-cutting run controls shared by every search
// algorithm: cooperative cancellation, incremental progress, and
// checkpoint/resume. The zero value is a plain run-to-completion search,
// bit-identical to the option-free entry points.
type Options struct {
	// Context cancels the run cooperatively: the search checks it at
	// generation/segment/batch boundaries and, once cancelled, returns the
	// partial Result accumulated so far together with ctx.Err(). Nil means
	// never cancelled.
	Context context.Context

	// Progress, when non-nil, is invoked at every boundary.
	Progress ProgressSink

	// Stats, when non-nil, is invoked at every boundary with the
	// telemetry view: counters, the live front (zero-copy) and memo-cache
	// hit rates.
	Stats StatsSink

	// Checkpoint, when non-nil and CheckpointEvery > 0, is invoked with a
	// self-contained Snapshot every CheckpointEvery boundaries (and never
	// at the final one, where the Result itself is the better artifact).
	Checkpoint      CheckpointFunc
	CheckpointEvery int

	// Resume restarts a run from a Snapshot previously produced by the
	// same algorithm over the same space and configuration. The resumed
	// run replays the exact trajectory of the uninterrupted one: RNG state
	// is restored bit-for-bit and the population/archive/chain state picks
	// up where the snapshot left off, so the final front is bit-identical
	// to a never-interrupted run with the same seed. Result.Evaluated
	// counts snapshot evaluations plus distinct post-resume evaluations;
	// configurations that were evaluated before the checkpoint but kept in
	// neither population nor archive may be re-evaluated (and re-counted)
	// after resume, so the count is an upper bound on distinct points.
	Resume *Snapshot

	// SeedPoints warm-starts the search from prior knowledge: NSGA-II
	// injects them (deduplicated, in order) into at most half of the
	// initial population before random fill — random exploration is never
	// fully displaced — and MOSA starts chain i from SeedPoints[i] when
	// one is available. Configurations that do not index the space (wrong
	// gene count, out-of-range index — e.g. a front transferred from a
	// sibling scenario with a different design space) are skipped, never
	// an error. Exhaustive and random search ignore seeds. Determinism is
	// unchanged: the trajectory is a pure function of (seed list, Seed),
	// and an empty list is bit-identical to the unseeded entry point.
	// Resume takes precedence: a resumed run ignores SeedPoints, since the
	// snapshot already fixes the whole trajectory.
	SeedPoints []Config

	// StopAfter, when > 0, pauses the run at that boundary instead of
	// finishing: the run force-writes a snapshot through Checkpoint
	// (regardless of CheckpointEvery) and returns its partial Result
	// together with ErrPaused. Combined with Resume this turns one search
	// into a sequence of deterministic rounds — run to a boundary, stop,
	// let the caller rearrange state (the island coordinator exchanges
	// migrants here), resume — with the guarantee that pausing and
	// resuming at any boundary replays the uninterrupted run's exact
	// trajectory. A StopAfter at or past the final boundary never fires;
	// 0 (the default) runs to completion.
	StopAfter int
}

// ErrPaused is the sentinel a run returns when it stops at the
// Options.StopAfter boundary. It is a pause, not a failure: the partial
// Result is valid, and the snapshot handed to Checkpoint at the pause
// boundary resumes the identical trajectory.
var ErrPaused = errors.New("dse: run paused at StopAfter boundary")

// validSeeds filters SeedPoints down to configurations that index the
// space, dropping duplicates while preserving first-seen order, and caps
// the list at max (<= 0: no cap). When the cap bites, survivors are
// stride-sampled across the whole list rather than truncated: seed lists
// are typically transferred Pareto fronts ordered along the tradeoff
// curve, and a prefix would seed only one end of it.
func (o Options) validSeeds(space *Space, max int) []Config {
	if len(o.SeedPoints) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(o.SeedPoints))
	out := make([]Config, 0, len(o.SeedPoints))
	for _, c := range o.SeedPoints {
		if !space.Valid(c) {
			continue
		}
		k := c.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, c)
	}
	if max > 0 && len(out) > max {
		sampled := make([]Config, max)
		for i := range sampled {
			sampled[i] = out[i*len(out)/max]
		}
		out = sampled
	}
	return out
}

// boundary is the shared per-boundary bookkeeping: emit progress and
// stats, write a due checkpoint, honor StopAfter, then honor
// cancellation — in that order, so a cancelled run's latest checkpoint
// is already durable when the partial result comes back, and a paused
// run's snapshot is written before ErrPaused surfaces. step is 1-based
// (boundaries completed); live returns the archive's shared point slice
// (materialized once, only when a sink is attached; both sinks read it in
// place), and snap builds the snapshot lazily and only when one is due.
func (o Options) boundary(algo string, step, total, evaluated, infeasible int, pe *ParallelEvaluator, live func() []Point, snap func() *Snapshot) error {
	if o.Progress != nil || o.Stats != nil {
		front := live()
		if o.Progress != nil {
			o.Progress(Progress{
				Algorithm:  algo,
				Step:       step,
				TotalSteps: total,
				Evaluated:  evaluated,
				Infeasible: infeasible,
				Front:      front,
			})
		}
		if o.Stats != nil {
			lookups, hits := pe.CacheStats()
			o.Stats(Stats{
				Algorithm:    algo,
				Step:         step,
				TotalSteps:   total,
				Evaluated:    evaluated,
				Infeasible:   infeasible,
				Front:        front,
				CacheHits:    hits,
				CacheLookups: lookups,
			})
		}
	}
	pause := o.StopAfter > 0 && step >= o.StopAfter && step < total
	if o.Checkpoint != nil {
		due := o.CheckpointEvery > 0 && step < total && step%o.CheckpointEvery == 0
		if due || pause {
			if err := o.Checkpoint(snap()); err != nil {
				return fmt.Errorf("dse: checkpoint at step %d: %w", step, err)
			}
		}
	}
	if pause {
		return ErrPaused
	}
	if o.Context != nil {
		if err := o.Context.Err(); err != nil {
			return err
		}
	}
	return nil
}
