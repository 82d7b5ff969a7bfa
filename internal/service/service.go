// Package service turns the scenario × algorithm exploration stack into a
// job-oriented, multi-tenant runtime: callers submit exploration jobs
// (scenario name, algorithm, seed, budget), a bounded-worker Manager
// schedules them concurrently over the compiled evaluation pipeline, and
// each job exposes lifecycle state, streaming progress, periodic
// checkpoints and — once finished — a versioned Pareto front in the
// content-addressed result Store.
//
// The paper's pitch is that the analytical model makes design-space
// exploration cheap enough to be interactive; this package is the layer
// that makes it *shared*: many consumers exploring many scenarios against
// one process, with the same determinism contract the algorithms
// guarantee below — a seeded job returns a bit-identical front no matter
// how many other jobs the service is running, because jobs share nothing
// mutable but the memo-safe code paths proven scheduling-independent in
// internal/dse.
//
// # Lifecycle and supervision
//
// The job state machine is
//
//	queued → running → done | failed | timed_out | cancelled
//	             ↘ queued (retry edge: attempt failed, retries left)
//
// Every attempt runs under a panic-recovering supervisor: a panic in an
// evaluator (or any hook on the search goroutine) fails the attempt with
// the captured stack instead of killing the process. A failed attempt
// with retries left (Spec.MaxRetries) re-enters queued, waits a capped
// exponential backoff with jitter (JobInfo.NextRetryAt), and runs again —
// resuming from the latest in-memory checkpoint when the job checkpoints
// (Spec.CheckpointEvery > 0), restarting from scratch otherwise; both
// paths produce a front bit-identical to an uninterrupted run, because
// resume restores the exact trajectory and a fresh run is deterministic
// in the seed. JobInfo reports Attempts, the last Error, and NextRetryAt
// while a retry is pending.
//
// Cancellation is cooperative through context.Context: the search
// algorithms check it at generation/segment/batch boundaries, so a
// cancelled job stops within one boundary and keeps the partial front it
// explored. Spec.DeadlineSeconds bounds the job's total running time
// (across retries) the same way: the deadline cancels at the next search
// boundary and the job lands in timed_out with its partial front.
// Neither cancelled nor timed_out jobs retry — both are verdicts, not
// faults.
//
// Jobs that request checkpointing produce a checkpoint at search
// boundaries (island jobs at every migration boundary). Plain and island
// jobs share one checkpoint store: a checkpoint is a list of
// dse.Snapshots, one per island and all at one step (a plain job's has
// one), and one writer keeps it in memory as the job's resume anchor
// and, with Config.CheckpointDir
// set, writes each island's snapshot to durable checkpoint files. Those
// files are checksummed and double-buffered: a file torn by a crash
// mid-write fails verification in LoadCheckpoint, the one loader, and
// recovery falls back to the previous checkpoint instead of resuming
// from garbage. Every attempt starts from one resume point — the
// in-memory anchor on a retry, the durable files for Spec.ResumeJob
// (below) — and replays the uninterrupted run's exact trajectory to a
// bit-identical front; JobInfo.ResumedFromStep reports the step it
// started from. Checkpoint and result-store write failures degrade
// gracefully — logged, never fatal to the job — so a full disk costs
// durability, not the exploration budget already spent. The
// internal/service/faultinject package provides the injection points the
// chaos test suite drives all of this with.
//
// # Island decomposition and drain
//
// Spec.Islands >= 2 runs one nsga2/mosa search as supervised worker
// islands (internal/service/island): lock-step rounds with deterministic
// ring migration, per-island checkpoints at every migration boundary,
// and failover by replay — an island panic, a killed worker process
// (Config.IslandExec) or a stalled round (Config.IslandStallTimeout)
// costs at most one round, and the merged front stays bit-identical to
// an undisturbed run. An island that keeps failing on its worker
// processes runs in-process from then on. Island jobs publish
// "island" events instead of "progress", surface per-island supervision
// state in JobInfo.Islands, and checkpoint per island — the coordinator
// hands each checkpoint to the manager, which does all the file I/O;
// when the island supervisor itself gives up, the manager's retry edge
// resumes from that checkpoint.
//
// Spec.ResumeJob is the one way back into an interrupted run: it resumes
// a prior job — plain or island — server-side from its durable
// checkpoint files under Config.CheckpointDir, keyed by the old job's
// ID. A missing, both-slots-corrupt, or algorithm-mismatched checkpoint
// fails the job loudly rather than silently starting over. Job IDs are
// durable names: a restarted Manager numbers fresh jobs after every ID
// its checkpoint and obs directories already hold, and a resume_job
// naming a job it does not hold continues under that ID, appending to
// the same obs stream (after cutting off any tail a crash tore).
// Manager.Drain is the graceful half of that story: it rejects new
// submissions with ErrDraining, cancels running jobs at their next
// boundary so their checkpoints land, and returns once every job has
// settled — wsn-serve wires it to SIGINT/SIGTERM.
//
// # Result store and warm starts
//
// Every finished job's front is archived in the Store under a content
// key — ResultKey hashes (scenario fingerprint, objective set,
// algorithm) — with an LRU bound and, when Config.ResultDir is set,
// durable persistence across process restarts (one atomic file per
// result, loaded again on reopen). A Spec with WarmStart "auto" seeds its
// search from the archive: the exact content match if one exists,
// otherwise fronts of same-family sibling scenarios (transfer seeding);
// an explicit version ("v17") pins the source. Seeds reach the
// algorithms through dse.Options.SeedPoints, so a warm-started job stays
// a pure function of (spec, store contents) — determinism is preserved,
// just relative to a richer input. JobInfo.WarmStart reports what was
// actually used.
//
// # Observability
//
// Every job carries a telemetry sampler fed by dse.Options.Stats at the
// same search boundaries that serve progress, checkpoints and
// cancellation. The sampling contract: boundaries are free-running and
// can fire thousands of times per second, so the sampler records at
// most one sample per Config.ObsSampleInterval (default 250ms) — plus
// the final boundary, always, so even a sub-interval job leaves one
// complete sample — and the turned-away common case costs one mutex and
// a clock read, zero allocations (pinned by TestSamplerBoundaryZeroAllocs).
// Each sample captures search health (step, evaluations, rate, front
// size, hypervolume against a running-nadir reference, memo-cache
// hits/lookups, attempt, island round/restarts) plus process runtime
// stats, as int64 columns.
//
// Samples land in the job's in-memory window, a ring in its record (the
// recent window behind Manager.JobStats and GET /v1/jobs/{id}/stats),
// and, when Config.ObsDir is set, in an append-only binary stream
// <obs-dir>/<jobID>.obs in the internal/obs format, decodable live or
// post-mortem with cmd/wsn-stats. File I/O runs on a per-job writer
// goroutine that follows the window by sample number. An obs file that
// cannot be opened or written degrades that job to window-only
// telemetry with one log line, and a writer that falls a whole window
// behind skips the samples it missed; neither fails or slows the
// search. The worker closes the writer before it publishes the job's
// terminal status, so the file is complete once the job is.
//
// Manager.WriteMetrics aggregates process-wide counters (job lifecycle,
// queue depth, per-scenario evaluations, store size/evictions, SSE
// subscribers, island rounds/restarts, obs volume) in Prometheus text
// form, served at GET /metrics by wsn-serve.
//
// # HTTP surface
//
// NewHandler exposes the Manager as a JSON-over-HTTP API (see http.go for
// the route table and error-code map), including an SSE stream of per-job
// progress events, and Client wraps that API for Go callers — decoding
// structured errors into typed *APIError values and draining the Page
// envelopes that all list endpoints return. cmd/wsn-serve is the
// production entry point; examples/service walks the whole flow.
package service

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/service/island"
)

// Names of the algorithms in dse's table (dse.Algorithms), the ones the
// service accepts.
const (
	AlgoNSGA2      = "nsga2"
	AlgoMOSA       = "mosa"
	AlgoExhaustive = "exhaustive"
	AlgoRandom     = "random"
)

// Spec is the client-facing job description. Seed and Workers live here —
// not in the per-algorithm configs — because they are service-level
// concerns: Seed is the determinism key results are stored under, and
// Workers is the evaluation parallelism the scheduler budgets for
// (default 1, so a loaded service degrades to fair round-robin instead of
// thrashing; the per-job cap keeps one tenant from monopolizing the
// machine). A seed or workers inside NSGA2/MOSA fails Validate.
type Spec struct {
	Scenario  string `json:"scenario"`
	Algorithm string `json:"algorithm"`
	Seed      int64  `json:"seed,omitempty"`
	Workers   int    `json:"workers,omitempty"`

	// Exactly the matching algorithm's config is consulted; both are
	// optional (zero configs select the dse defaults). Either way
	// nsga2.population_size and mosa.restarts are capped at 4096.
	NSGA2 *dse.NSGA2Config `json:"nsga2,omitempty"`
	MOSA  *dse.MOSAConfig  `json:"mosa,omitempty"`

	// Budget is the random-search draw budget (default dse.DefaultBudget).
	Budget int `json:"budget,omitempty"`
	// MaxPoints guards exhaustive sweeps (default dse.DefaultMaxPoints): a
	// space larger than this is rejected rather than enumerated.
	MaxPoints int `json:"max_points,omitempty"`

	// WarmStart seeds the initial population from prior fronts in the
	// result store: "" or "off" runs cold (the default — bit-identical
	// to pre-warm-start behavior), "auto" resolves the scenario's
	// content key (fingerprint, objectives, algorithm) plus near-miss
	// family siblings, and an explicit version ("17" or "v17") seeds
	// from exactly that stored front. Applies to nsga2 and mosa;
	// exhaustive and random ignore it. JobInfo.WarmStart reports what was
	// actually seeded.
	WarmStart string `json:"warm_start,omitempty"`

	// MaxRetries is how many times a failed attempt (panic or error —
	// not cancellation, not a deadline) is automatically retried, with
	// capped exponential backoff between attempts. Retries resume from
	// the job's latest checkpoint when CheckpointEvery > 0 and restart
	// from scratch otherwise; either way the final front is bit-identical
	// to an uninterrupted run. Default 0 (fail on the first error),
	// capped at 16.
	MaxRetries int `json:"max_retries,omitempty"`

	// DeadlineSeconds bounds the job's total running time across all
	// attempts (queue wait excluded). The deadline cancels cooperatively
	// at the next search boundary; the job ends timed_out, keeping the
	// partial front explored so far. 0 means no deadline.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`

	// CheckpointEvery asks for a dse.Snapshot every N search boundaries
	// (generations / chain segments / evaluation batches); 0 disables.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// ResumeJob names a previous job (same scenario, algorithm, config
	// and island layout) to resume from the durable checkpoint files it
	// left under the server's checkpoint directory; the resumed job's
	// front is bit-identical to an uninterrupted run. The value must be a
	// server-assigned ID ("j" and a positive decimal, e.g. "j17"). A job
	// this manager does not hold — one from before a restart — continues
	// under its old ID; otherwise the resumed job gets a fresh one.
	// Requires Config.CheckpointDir; mutually exclusive with WarmStart.
	// Corrupt or missing checkpoints fail the job with a diagnosable error
	// rather than silently restarting from scratch.
	ResumeJob string `json:"resume_job,omitempty"`

	// Islands partitions the search across N supervised islands with
	// deterministic ring migration (see internal/service/island): 0 or 1
	// selects the plain single-search path, 2..16 the island coordinator.
	// nsga2 and mosa only. The merged front is a pure function of
	// (spec, islands, migration_interval, migrants) — island crashes,
	// retries, fallbacks and coordinator restarts never change it. Island
	// jobs checkpoint at every migration boundary (checkpoint_every must
	// stay 0), publish "island" events instead of "progress", and report
	// per-island supervision state in JobInfo.Islands.
	Islands int `json:"islands,omitempty"`
	// MigrationInterval is the migration period in search boundaries
	// (0 selects the island default, 5). Only valid with Islands >= 2.
	MigrationInterval int `json:"migration_interval,omitempty"`
	// Migrants is how many front members each island sends its ring
	// successor per boundary (0 selects the default, 4; capped at 64).
	// Only valid with Islands >= 2.
	Migrants int `json:"migrants,omitempty"`
}

// maxEvalWorkers caps per-job evaluation parallelism.
const maxEvalWorkers = 64

// maxIslands caps Spec.Islands, and maxMigrants Spec.Migrants: island
// decomposition is a handful-of-partitions technique — a thousand-island
// request is a typo or an attack, not a plan. maxPopulation caps
// nsga2.population_size and maxChains mosa.restarts: both size buffers a
// search allocates before its first boundary, where neither a cancel nor
// a deadline can stop it.
const (
	maxIslands    = 16
	maxMigrants   = 64
	maxPopulation = 4096
	maxChains     = 4096
)

// normalize fills the defaults validation and execution agree on.
func (s Spec) normalize() Spec {
	if s.Workers <= 0 {
		s.Workers = 1
	}
	if s.Budget == 0 {
		s.Budget = dse.DefaultBudget
	}
	if s.MaxPoints == 0 {
		s.MaxPoints = dse.DefaultMaxPoints
	}
	return s
}

// search is the dse.Search the spec runs.
func (s Spec) search() dse.Search {
	return dse.Search{Algorithm: s.Algorithm, Seed: s.Seed, Workers: s.Workers,
		NSGA2: s.NSGA2, MOSA: s.MOSA, Budget: s.Budget, MaxPoints: s.MaxPoints}
}

// deadline converts DeadlineSeconds into the timeout attempts arms (0: no
// deadline). Validate and attempts both use it.
func (s Spec) deadline() (time.Duration, error) {
	d, ns := s.DeadlineSeconds, s.DeadlineSeconds*float64(time.Second)
	switch {
	case d < 0:
		return 0, fmt.Errorf("service: negative deadline_seconds %g", d)
	case d != 0 && !(ns >= 1 && ns < 0x1p63): // float64(math.MaxInt64) rounds up to 2^63; NaN fails too
		return 0, fmt.Errorf("service: deadline_seconds %g does not fit a time.Duration", d)
	}
	return time.Duration(ns), nil
}

// Validate rejects a malformed spec before a worker is committed to it:
// unknown scenario or algorithm, out-of-domain algorithm configs,
// out-of-range budgets, or a resume_job that is not a job ID.
func (s Spec) Validate() error {
	if s.Scenario == "" {
		return fmt.Errorf("service: spec has no scenario")
	}
	if _, ok := scenario.FingerprintOf(s.Scenario); !ok {
		return fmt.Errorf("service: unknown scenario %q", s.Scenario)
	}
	search := s.search()
	if err := search.Validate(); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if s.Workers < 0 || s.Workers > maxEvalWorkers {
		return fmt.Errorf("service: workers %d out of [0,%d]", s.Workers, maxEvalWorkers)
	}
	if s.NSGA2 != nil && s.NSGA2.PopulationSize > maxPopulation {
		return fmt.Errorf("service: nsga2.population_size %d above %d", s.NSGA2.PopulationSize, maxPopulation)
	}
	if s.MOSA != nil && s.MOSA.Restarts > maxChains {
		return fmt.Errorf("service: mosa.restarts %d above %d", s.MOSA.Restarts, maxChains)
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("service: negative checkpoint interval %d", s.CheckpointEvery)
	}
	if s.MaxRetries < 0 || s.MaxRetries > maxJobRetries {
		return fmt.Errorf("service: max_retries %d out of [0,%d]", s.MaxRetries, maxJobRetries)
	}
	if _, err := s.deadline(); err != nil {
		return err
	}
	if !validWarmStart(s.WarmStart) {
		return fmt.Errorf("service: malformed warm_start %q (want off|auto|<version>)", s.WarmStart)
	}
	if s.ResumeJob != "" {
		// The ID becomes part of checkpoint file paths, so only the
		// server's own form may pass: anything else could name a file
		// outside the checkpoint directory.
		if _, ok := jobNumber(s.ResumeJob); !ok {
			return fmt.Errorf("service: resume_job %q is not a job ID (want j<N>)", s.ResumeJob)
		}
		if warmStartRequested(s.WarmStart) {
			return fmt.Errorf("service: resume_job and warm_start are mutually exclusive (the checkpoint already fixes the trajectory)")
		}
	}
	if s.Islands < 0 || s.Islands > maxIslands {
		return fmt.Errorf("service: islands %d out of [0,%d]", s.Islands, maxIslands)
	}
	if s.Islands >= 2 {
		if !search.Injectable() {
			return fmt.Errorf("service: algorithm %s does not support island decomposition", s.Algorithm)
		}
		if warmStartRequested(s.WarmStart) {
			return fmt.Errorf("service: warm_start is not supported for island jobs")
		}
		if s.CheckpointEvery != 0 {
			return fmt.Errorf("service: island jobs checkpoint at every migration boundary; checkpoint_every must be 0")
		}
	} else {
		if s.MigrationInterval != 0 {
			return fmt.Errorf("service: migration_interval needs islands >= 2")
		}
		if s.Migrants != 0 {
			return fmt.Errorf("service: migrants needs islands >= 2")
		}
	}
	if s.MigrationInterval < 0 {
		return fmt.Errorf("service: negative migration_interval %d", s.MigrationInterval)
	}
	if s.Migrants < 0 || s.Migrants > maxMigrants {
		return fmt.Errorf("service: migrants %d out of [0,%d]", s.Migrants, maxMigrants)
	}
	return nil
}

// maxJobNumber caps the number of a job ID and the version in a result
// file's name. Fresh IDs count up from the largest number a manager has
// seen, and a resume_job may name any ID; without a cap far below
// math.MaxInt one resume_job near the top would wrap every later ID
// negative.
const maxJobNumber = 1 << 53

// jobNumber parses a server-assigned job ID — "j" and a decimal in
// [1, maxJobNumber] without leading zeros — into its number.
func jobNumber(id string) (int, bool) { return serial(id, "j", "") }

// serial parses name — prefix, a decimal in [1, maxJobNumber] without
// leading zeros, then suffix — into the decimal.
func serial(name, prefix, suffix string) (int, bool) {
	digits, hasPrefix := strings.CutPrefix(name, prefix)
	digits, hasSuffix := strings.CutSuffix(digits, suffix)
	n, err := strconv.Atoi(digits)
	if !hasPrefix || !hasSuffix || err != nil || n < 1 || int64(n) > maxJobNumber || strconv.Itoa(n) != digits {
		return 0, false
	}
	return n, true
}

// Status is the job lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusTimedOut  Status = "timed_out"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the job has stopped moving. A queued status
// on a job with Attempts > 0 is the retry edge — the job failed and is
// waiting out its backoff — not a terminal state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusTimedOut || s == StatusCancelled
}

// ProgressInfo is the service-level progress view: the dse boundary
// counters plus wall-clock throughput (which belongs here, not in dse —
// timing is observational and never feeds back into results).
type ProgressInfo struct {
	Step        int     `json:"step"`
	TotalSteps  int     `json:"total_steps"`
	Evaluated   int     `json:"evaluated"`
	Infeasible  int     `json:"infeasible"`
	FrontSize   int     `json:"front_size"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	EvalsPerSec float64 `json:"evals_per_sec"`
}

// JobInfo is the externally visible job state. ResumedFromStep records
// the checkpoint step a resumed job (resume_job or a retry) started from.
type JobInfo struct {
	ID              string `json:"id"`
	Spec            Spec   `json:"spec"`
	ResumedFromStep int    `json:"resumed_from_step,omitempty"`
	Status          Status `json:"status"`
	// Error is the most recent attempt's failure (panic value + stack for
	// supervised panics). It persists through the retry wait — a queued
	// job with a non-empty Error is on the retry edge — and clears if a
	// later attempt succeeds.
	Error string `json:"error,omitempty"`
	// Attempts counts attempts started; 1 for a job that never failed.
	Attempts int `json:"attempts,omitempty"`
	// NextRetryAt is when the next attempt starts, set only while the job
	// waits out its retry backoff.
	NextRetryAt *time.Time    `json:"next_retry_at,omitempty"`
	CreatedAt   time.Time     `json:"created_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	Progress    *ProgressInfo `json:"progress,omitempty"`
	// Islands is the per-island supervision state of an island job
	// (Spec.Islands >= 2): whether each island fell back to in-process
	// execution, the latest boundary it passed, and its attempt/restart
	// counts. Nil for single-search jobs.
	Islands       []island.Status `json:"islands,omitempty"`
	ResultVersion int             `json:"result_version,omitempty"`
	// WarmStart reports how the initial population was seeded; nil for
	// cold runs (including warm_start: auto against an empty store).
	WarmStart *WarmStartInfo `json:"warm_start,omitempty"`
}

// FrontPoint is one Pareto-front point in wire form.
type FrontPoint struct {
	Config []int     `json:"config"`
	Objs   []float64 `json:"objs"`
}

// FrontResponse is the GET /v1/jobs/{id}/front payload: the front over
// everything the job evaluated, with enough identity to reproduce it.
type FrontResponse struct {
	JobID      string       `json:"job_id"`
	Status     Status       `json:"status"`
	Scenario   string       `json:"scenario"`
	Algorithm  string       `json:"algorithm"`
	Seed       int64        `json:"seed"`
	Evaluated  int          `json:"evaluated"`
	Infeasible int          `json:"infeasible"`
	Front      []FrontPoint `json:"front"`
}
