package dse

import (
	"context"
	"errors"
	"fmt"
)

// Stats is one search-boundary snapshot, delivered to a StatsSink. The
// unit of Step depends on the algorithm: NSGA-II counts completed
// generations, MOSA completed chain segments, exhaustive and random
// search completed evaluation batches. Front is the archive's own sorted
// storage, valid only for the duration of the call and strictly
// read-only, so emitting a Stats allocates nothing on the
// NSGA-II/exhaustive/random paths. A sink that keeps the front past its
// return must copy it, Points included: their genes are the archive's
// buffers, which it recycles, and their objectives alias the memo's
// objective arena. CacheHits/CacheLookups expose the memo cache (lookups
// = hits + distinct evaluations), the signal that tells an operator
// whether a search is still discovering or mostly revisiting.
type Stats struct {
	Algorithm    string
	Step         int     // boundaries completed so far
	TotalSteps   int     // boundaries the full run will reach
	Evaluated    int     // distinct configurations evaluated so far
	Infeasible   int     // of those, constraint violations
	Front        []Point // shared storage — do not retain or mutate
	CacheHits    int64   // memo-cache hits so far
	CacheLookups int64   // memo-cache lookups so far
}

// StatsSink receives Stats at every search boundary. Sinks run
// synchronously on the search goroutine between generations, segments or
// batches — never inside the allocation-free hot loops — so a slow sink
// slows the search but cannot corrupt it. A nil sink costs nothing.
type StatsSink func(Stats)

// Deprecated: Progress is the old name of Stats.
type Progress = Stats

// Deprecated: ProgressSink is the old name of StatsSink.
type ProgressSink = StatsSink

// CheckpointFunc persists one Snapshot. A non-nil error aborts the run:
// the search returns its partial result alongside the error, on the theory
// that a service that cannot persist checkpoints should not silently keep
// burning the evaluation budget it promised to make resumable.
type CheckpointFunc func(*Snapshot) error

// Options carries the cross-cutting run controls shared by every search
// algorithm: cooperative cancellation, incremental progress, and
// checkpoint/resume. The zero value is a plain run-to-completion search.
type Options struct {
	// Context cancels the run cooperatively: the search checks it at
	// generation/segment/batch boundaries and, once cancelled, returns the
	// partial Result accumulated so far together with ctx.Err(). Nil means
	// never cancelled.
	Context context.Context

	// Stats, when non-nil, is invoked at every boundary with the
	// counters, the live front (zero-copy) and memo-cache hit rates.
	Stats StatsSink

	// Deprecated: attach the sink as Stats. Progress gets the same value,
	// just before Stats.
	Progress ProgressSink

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

// runState is the bookkeeping every search shares, around the hot loop
// that is each algorithm's own: the run options, the batch runtime and
// the run's evaluation pool, the boundaries already passed (a resume's
// Step) and in the whole run, and the counts a resumed run carries over.
type runState struct {
	algo        string
	opts        Options
	pe          *ParallelEvaluator
	pool        evalPool
	done, total int
	// baseEval and baseInf are the resume snapshot's counts. Primed memo
	// entries never touch the evaluator's counters, so a resumed run's
	// totals are these plus its fresh evaluations.
	baseEval, baseInf int
	// in and out are the batch a pool job evaluates: evalItem writes
	// in[i]'s point to out[i]. evalItem is bound once, so a job allocates
	// nothing.
	in       []Config
	out      []Point
	evalItem func(w, i int)
}

// begin validates the space, builds the batch runtime and the run's
// evaluation pool over s.Workers and checks opts.Resume against s
// (Search.ValidateResume). The run passes s.Steps(space) boundaries. On
// success the caller must defer pool.stop.
func begin(s Search, space *Space, eval Evaluator, opts Options) (*runState, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	r := &runState{algo: s.Algorithm, opts: opts, pe: NewParallelEvaluator(eval, s.Workers), total: s.Steps(space)}
	if snap := opts.Resume; snap != nil {
		if err := s.ValidateResume(snap, space, r.pe.NumObjectives()); err != nil {
			return nil, err
		}
		r.done, r.baseEval, r.baseInf = snap.Step, snap.Evaluated, snap.Infeasible
	}
	r.evalItem = func(w, i int) { r.out[i] = r.pe.evalFor(w, r.in[i]) }
	r.pool.helpers = r.pe.Workers() - 1
	return r, nil
}

// evaluate is EvaluateBatch on the run's pool, writing into out: out is
// grown only when its capacity is short, and returned holding configs[i]'s
// point at i.
func (r *runState) evaluate(configs []Config, out []Point) []Point {
	if cap(out) < len(configs) {
		out = make([]Point, len(configs))
	}
	r.in, r.out = configs, out[:len(configs)]
	r.pool.run(len(configs), r.evalItem)
	return r.out
}

// restore rebuilds a snapshot archive into arch and primes the memo with
// its points, so re-visited configurations are cache hits rather than
// re-evaluations.
func (r *runState) restore(arch *Archive, ps []Point) {
	restoreArchive(arch, ps)
	for _, p := range arch.Points() {
		r.pe.prime(p)
	}
}

// counts returns the run's cumulative Evaluated and Infeasible.
func (r *runState) counts() (evaluated, infeasible int) {
	evaluated, infeasible = r.pe.Stats()
	return r.baseEval + evaluated, r.baseInf + infeasible
}

// loop passes boundaries done+1 through total: step(k) advances the
// search to boundary k, then the boundary hooks run. front returns the
// live front (the archive's own points); fill adds the algorithm's
// fields to a due snapshot. It returns the detached Result with
// cumulative counts, together with the error of a hook that stopped the
// run (cancellation, a failed checkpoint, ErrPaused).
func (r *runState) loop(step func(k int), front func() []Point, fill func(*Snapshot)) (*Result, error) {
	var err error
	for k := r.done + 1; k <= r.total && err == nil; k++ {
		step(k)
		err = r.boundary(k, front, fill)
	}
	evaluated, infeasible := r.counts()
	return &Result{Front: detach(front()), Evaluated: evaluated, Infeasible: infeasible}, err
}

// boundary is the per-boundary bookkeeping: emit stats, write a due
// checkpoint, honor StopAfter, then honor cancellation — in that order,
// so a cancelled run's latest checkpoint is already durable when the
// partial result comes back, and a paused run's snapshot is written
// before ErrPaused surfaces. step is 1-based (boundaries completed). One
// Stats is built, only when a sink is attached, and every attached sink
// reads the front in place; a snapshot is built only when one is due.
func (r *runState) boundary(step int, front func() []Point, fill func(*Snapshot)) error {
	o := r.opts
	evaluated, infeasible := r.counts()
	if o.Progress != nil || o.Stats != nil {
		lookups, hits := r.pe.CacheStats()
		st := Stats{
			Algorithm:    r.algo,
			Step:         step,
			TotalSteps:   r.total,
			Evaluated:    evaluated,
			Infeasible:   infeasible,
			Front:        front(),
			CacheHits:    hits,
			CacheLookups: lookups,
		}
		if o.Progress != nil {
			o.Progress(st)
		}
		if o.Stats != nil {
			o.Stats(st)
		}
	}
	pause := o.StopAfter > 0 && step >= o.StopAfter && step < r.total
	if o.Checkpoint != nil {
		due := o.CheckpointEvery > 0 && step < r.total && step%o.CheckpointEvery == 0
		if due || pause {
			snap := &Snapshot{Version: SnapshotVersion, Algorithm: r.algo, Step: step, Evaluated: evaluated, Infeasible: infeasible}
			fill(snap)
			if err := o.Checkpoint(snap); err != nil {
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
