package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log"
	"maps"
	"os"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/service/faultinject"
	"wsndse/internal/service/island"
)

// Config parameterizes a Manager. The zero value is usable: 2 concurrent
// jobs, a 64-deep queue, no checkpoint directory (checkpoints are then kept
// in memory only, for retries, and resume_job is rejected).
type Config struct {
	// Workers is how many jobs run concurrently (job-level parallelism;
	// each job additionally fans its evaluations over Spec.Workers).
	Workers int
	// QueueLimit bounds queued-but-not-started jobs; Submit fails fast
	// with ErrQueueFull beyond it, because an unbounded queue turns
	// overload into silent unbounded latency.
	QueueLimit int
	// CheckpointDir, when set, persists each job's latest checkpoint to
	// <dir>/<jobID>.snapshot.json (island jobs: one
	// <jobID>.island<i>.snapshot.json per island), atomically and with a
	// two-slot rotation, so checkpoints survive the process;
	// Spec.ResumeJob resumes from these files (see LoadCheckpoint). New
	// creates the directory.
	CheckpointDir string
	// ResultDir, when set, makes the result store durable: finished
	// fronts are written there, one atomic file per result, and a
	// restarted Manager serves — and warm-starts from — the previous
	// process's results.
	ResultDir string
	// MaxResults bounds both the result store and the finished job
	// records the manager holds (<= 0 selects DefaultMaxResults). Beyond
	// it the store evicts its least-recently-used front, and the manager
	// drops the record of the job that finished first: its /v1/jobs/{id}
	// endpoints then answer not found, its front stays in the store for
	// as long as the store holds it, and a checkpointed job can still be
	// continued with resume_job. Queued and running jobs do not count.
	MaxResults int
	// RetryBaseDelay/RetryMaxDelay shape the backoff between retry
	// attempts of failed jobs (zero selects DefaultRetryBaseDelay/
	// DefaultRetryMaxDelay). Tests shrink them.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// IslandExec, when set, runs each island round of an island job
	// (Spec.Islands >= 2) in a supervised child worker process spawned
	// from this binary (cmd/wsn-island); empty runs islands in-process.
	// Either way the merged front is identical — process isolation buys
	// crash containment, not different results.
	IslandExec string
	// IslandStallTimeout arms the island coordinator's heartbeat watchdog:
	// an island attempt passing no search boundary for this long is
	// cancelled and retried. 0 disables the watchdog.
	IslandStallTimeout time.Duration
	// ObsDir, when set, persists each job's telemetry stream to
	// <dir>/<jobID>.obs in the append-only obs format (decode with
	// wsn-stats or internal/obs). Every job additionally keeps an
	// in-memory recent window serving GET /v1/jobs/{id}/stats, obs dir
	// or not.
	ObsDir string
	// ObsSampleInterval is the minimum spacing between recorded
	// telemetry samples per job (zero selects DefaultObsSampleInterval).
	// The final search boundary is always sampled.
	ObsSampleInterval time.Duration
	// Logf receives the manager's degradation log lines — checkpoint and
	// result-store write failures, retry announcements. Nil selects
	// log.Printf. These are exactly the failures the manager survives
	// rather than surfaces, so the log is their only trace.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.MaxResults <= 0 {
		c.MaxResults = DefaultMaxResults
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = DefaultRetryBaseDelay
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = DefaultRetryMaxDelay
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Sentinel errors of the job API.
var (
	ErrNotFound    = errors.New("service: no such job")
	ErrQueueFull   = errors.New("service: job queue is full")
	ErrClosed      = errors.New("service: manager is closed")
	ErrDraining    = errors.New("service: manager is draining")
	ErrNotFinished = errors.New("service: job has no front yet")
)

// job is one submitted job. While it is queued or running, live holds
// what its worker needs beside the record: its context. Its hub is its
// event history and its only terminal signal: Events, Wait and Drain
// follow it until it closes. Once the worker is done with it, retire
// releases live and the record keeps only what the job's endpoints serve:
// its JobInfo (Get, Jobs), its closed hub's history (Events), its stats
// window (JobStats), and its packed front with the two counts Front
// builds its response from.
// info.Spec never changes after Submit, so the worker reads it without
// mu; mu guards the rest of info and every other field Submit does not
// fix. The lifecycle is single-writer (the manager worker running the
// job) but many-reader.
type job struct {
	seq  int // submission order, set before the job is published
	mu   sync.Mutex
	info JobInfo
	hub  hub
	live *liveJob // nil once retired
	// stats is the job's telemetry window, which its sampler fills while
	// the job runs.
	stats statsWindow
	// points, evaluated and infeasible are the front Front serves, set
	// when the job ends with one. A done job's store entry shares points.
	points                *packedFront
	evaluated, infeasible int
}

// liveJob is what a queued or running job needs beyond its record.
type liveJob struct {
	ctx    context.Context // derived from the manager root; Cancel fires it
	cancel context.CancelFunc
	// met is the manager's registry, threaded in so setStatus can move
	// the lifecycle gauges without a back-pointer to the Manager.
	met *metrics
}

// run is the state of a job's attempt loop, owned by attempts. The dse
// boundary hooks and the coordinator's OnCheckpoint run on its
// goroutine, so it needs no lock.
type run struct {
	job *job
	ctx context.Context // the job's ctx plus its deadline
	// ckpt is the job's latest checkpoint, one snapshot per island (a
	// plain job's has one): the resume anchor a retried attempt restarts
	// from (see Manager.checkpoint and resumePoint).
	ckpt []*dse.Snapshot
	// seeds is the warm-start resolution of the first attempt, which
	// every retry reuses (see execute).
	seeds    []dse.Config
	resolved bool
}

// setStatus transitions the lifecycle under the job lock and publishes
// the matching event. It refuses to leave a terminal state, so it never
// runs on a retired job.
func (j *job) setStatus(s Status, errMsg string) bool {
	j.mu.Lock()
	if j.info.Status.Terminal() {
		j.mu.Unlock()
		return false
	}
	prior := j.info.Status
	j.info.Status = s
	j.info.Error = errMsg
	now := time.Now()
	switch s {
	case StatusRunning:
		j.info.StartedAt = &now
	case StatusDone, StatusFailed, StatusTimedOut, StatusCancelled:
		j.info.FinishedAt = &now
		j.info.NextRetryAt = nil
	}
	attempt, live := j.info.Attempts, j.live
	j.mu.Unlock()
	// Lifecycle gauges move on the transition edges; the terminal
	// counters fire exactly once per job because terminal states are
	// absorbing (the guard above).
	met := live.met
	if prior == StatusQueued {
		met.jobsQueued.Add(-1)
	}
	if prior == StatusRunning {
		met.jobsRunning.Add(-1)
	}
	switch {
	case s == StatusRunning:
		met.jobsRunning.Add(1)
	case s == StatusQueued:
		met.jobsQueued.Add(1)
	case s.Terminal():
		met.completed(s)
	}
	j.hub.publish(Event{Type: "status", Status: s, Error: errMsg, Attempt: attempt})
	if s.Terminal() {
		j.hub.close()
	}
	return true
}

// compact releases what only the worker needed once it is done with the
// job, keeping the record described on job: live goes, and the stats
// window drops its spare capacity. The hub folded its own history when
// it closed.
func (j *job) compact() {
	j.mu.Lock()
	j.live = nil
	j.mu.Unlock()
	j.stats.trim()
}

// Manager is the job scheduler: a bounded queue feeding a fixed pool of
// job workers, a per-job event hub, and the shared result Store. All
// methods are safe for concurrent use.
type Manager struct {
	cfg   Config
	store *Store
	met   *metrics

	mu   sync.Mutex
	jobs map[string]*job
	// finished holds the retained finished records in the order they
	// finished; past cfg.MaxResults the first one is evicted (retire).
	finished  []*job
	submitted int // jobs accepted so far; numbers job.seq
	nextID    int
	closed    bool
	draining  bool

	queue chan *job
	root  context.Context
	stop  context.CancelFunc
	wg    sync.WaitGroup
}

// New starts a Manager with cfg.Workers job workers. With cfg.ResultDir
// set it reopens the persistent result store first, so fronts archived
// by a previous process are immediately queryable and warm-startable;
// a store that cannot be opened fails construction rather than silently
// degrading to amnesia. Fresh job IDs continue after the largest one
// named in cfg.CheckpointDir and cfg.ObsDir, so a restarted manager never
// overwrites an earlier process's checkpoints or telemetry.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	// The checkpoint and obs directories are created once here, not per
	// job or per checkpoint: a checkpoint write and a sampler's lazy file
	// open must be the only filesystem costs a job pays.
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: checkpoint dir: %w", err)
		}
	}
	if cfg.ObsDir != "" {
		if err := os.MkdirAll(cfg.ObsDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: obs dir: %w", err)
		}
	}
	lastID, err := lastJobNumber(cfg.CheckpointDir, cfg.ObsDir)
	if err != nil {
		return nil, err
	}
	store, err := NewStore(StoreConfig{Dir: cfg.ResultDir, MaxResults: cfg.MaxResults})
	if err != nil {
		return nil, err
	}
	root, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:    cfg,
		store:  store,
		met:    newMetrics(),
		jobs:   make(map[string]*job),
		nextID: lastID,
		queue:  make(chan *job, cfg.QueueLimit),
		root:   root,
		stop:   stop,
	}
	m.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.runJob(j)
				m.retire(j)
			}
		}()
	}
	return m, nil
}

// lastJobNumber returns the largest N among the j<N> job IDs that prefix
// file names in dirs (the checkpoint slots of plain and island jobs, obs
// streams). A directory that does not exist yet holds no IDs.
func lastJobNumber(dirs ...string) (int, error) {
	last := 0
	for _, dir := range dirs {
		if dir == "" {
			continue
		}
		entries, err := os.ReadDir(dir)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return 0, fmt.Errorf("service: scanning %s for job IDs: %w", dir, err)
		}
		for _, e := range entries {
			id, _, _ := strings.Cut(e.Name(), ".")
			if n, ok := jobNumber(id); ok && n > last {
				last = n
			}
		}
	}
	return last, nil
}

// Store returns the versioned result store.
func (m *Manager) Store() *Store { return m.store }

// allJobs returns every retained job in submission order.
func (m *Manager) allJobs() []*job {
	m.mu.Lock()
	jobs := slices.Collect(maps.Values(m.jobs))
	m.mu.Unlock()
	slices.SortFunc(jobs, func(a, b *job) int { return cmp.Compare(a.seq, b.seq) })
	return jobs
}

// retire compacts j, which a worker has just finished with, counts it
// toward the cfg.MaxResults bound on finished records, and evicts the
// record that finished first beyond it. Every job that was ever queued
// passes here once: run to its end, cancelled while queued, or cancelled
// by Close. A job's obs file was closed before its terminal status, so
// an evicted ID that a resume_job continues never appends behind a
// writer that still holds the file.
func (m *Manager) retire(j *job) {
	j.compact()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = append(m.finished, j)
	if len(m.finished) <= m.cfg.MaxResults {
		return
	}
	old := m.finished[0]
	m.finished[0] = nil
	m.finished = m.finished[1:]
	delete(m.jobs, old.info.ID)
	m.met.jobsEvicted.Add(1)
}

// Close cancels every job, stops accepting submissions, and waits for the
// workers to drain the queue, which marks every queued job cancelled. A
// job's obs file is complete on disk once the job is terminal, so every
// one is when Close returns.
func (m *Manager) Close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
	m.store.Close()
}

// Drain begins a graceful shutdown: new submissions are rejected with
// ErrDraining, every non-terminal job is cancelled cooperatively (running
// jobs stop at their next search boundary, leaving their durable
// checkpoints behind for a resume_job restart), and Drain blocks until
// every job reaches a terminal state or ctx expires. The manager keeps
// serving reads — job state, fronts, results — while and after draining;
// Close finishes the shutdown.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.draining = true
	m.mu.Unlock()
	jobs := m.allJobs()
	for _, j := range jobs {
		j.stop("manager draining")
	}
	for _, j := range jobs {
		if err := j.hub.wait(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Submit validates the spec and enqueues a new job, returning its info
// snapshot. It fails fast on a full queue (ErrQueueFull), a draining
// manager (ErrDraining), or a closed one (ErrClosed).
func (m *Manager) Submit(spec Spec) (JobInfo, error) {
	spec = spec.normalize()
	if err := spec.Validate(); err != nil {
		return JobInfo{}, err
	}
	// An explicit warm-start version is a provenance request; reject it
	// at submit time if the store cannot honor it, instead of failing the
	// job after it was queued. (auto degrades to a cold run, never fails.)
	if v, ok := warmStartVersion(spec.WarmStart); ok {
		if _, found := m.store.Get(v); !found {
			return JobInfo{}, fmt.Errorf("service: warm-start version %d is not in the result store", v)
		}
	}
	// resume_job reads durable checkpoint files; without a checkpoint
	// directory there is nothing it could ever find. Fail the submit, not
	// the queued job.
	if spec.ResumeJob != "" && m.cfg.CheckpointDir == "" {
		return JobInfo{}, fmt.Errorf("service: resume_job needs a server checkpoint directory (wsn-serve -checkpoint-dir)")
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobInfo{}, ErrClosed
	}
	if m.draining {
		m.mu.Unlock()
		return JobInfo{}, ErrDraining
	}
	// A resume_job naming a job this manager does not hold — one from a
	// previous process — continues under that ID, so its checkpoints and
	// obs stream stay one series. Fresh IDs skip past it.
	var id string
	if n, ok := jobNumber(spec.ResumeJob); ok && m.jobs[spec.ResumeJob] == nil {
		id = spec.ResumeJob
		m.nextID = max(m.nextID, n)
	} else {
		m.nextID++
		id = fmt.Sprintf("j%d", m.nextID)
	}
	ctx, cancel := context.WithCancel(m.root)
	j := &job{
		info: JobInfo{ID: id, Spec: spec, Status: StatusQueued, CreatedAt: time.Now()},
		live: &liveJob{ctx: ctx, cancel: cancel, met: m.met},
	}
	// The queue send stays inside the critical section: it is non-blocking,
	// and m.mu is what orders it against Close's close(m.queue) — a send
	// racing the close would panic the process. The queued event precedes
	// the send so a fast worker cannot publish "running" first (the hub
	// lock is leaf-level, so publishing under m.mu is cycle-free), and a
	// rejected job was never registered, so sustained overload does not
	// accrete phantom job records.
	j.hub.publish(Event{Type: "status", Status: StatusQueued})
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		cancel()
		return JobInfo{}, ErrQueueFull
	}
	m.submitted++
	j.seq = m.submitted
	m.jobs[id] = j
	m.mu.Unlock()
	m.met.jobsSubmitted.Add(1)
	m.met.jobsQueued.Add(1)
	return j.snapshotInfo(), nil
}

// snapshotInfo returns a copy of the job's info under its lock. Its
// pointers and slices are never written through, only replaced.
func (j *job) snapshotInfo() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info
}

// lookup fetches a job by id.
func (m *Manager) lookup(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Get returns a job's current info. A finished job's record is dropped
// once Config.MaxResults jobs have finished after it; Get then reports
// it missing, as for an ID never issued.
func (m *Manager) Get(id string) (JobInfo, bool) {
	j, ok := m.lookup(id)
	if !ok {
		return JobInfo{}, false
	}
	return j.snapshotInfo(), true
}

// Jobs returns the info of every retained job in submission order: the
// queued and running jobs, and the last Config.MaxResults finished ones.
func (m *Manager) Jobs() []JobInfo {
	jobs := m.allJobs()
	out := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshotInfo()
	}
	return out
}

// Cancel requests cooperative cancellation. Queued jobs cancel
// immediately; running jobs stop at their next search boundary, keeping
// the partial front. Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	j, ok := m.lookup(id)
	if !ok {
		return ErrNotFound
	}
	j.stop(context.Canceled.Error())
	return nil
}

// stop cancels the job: a running one stops at its next search boundary,
// and a queued one that never ran is marked cancelled with reason at
// once, without waiting for a worker. One waiting out a retry has a
// telemetry sampler, so its worker ends it, at once, after closing the
// sampler. A retired job has nothing left to cancel.
func (j *job) stop(reason string) {
	j.mu.Lock()
	if j.live != nil {
		j.live.cancel()
	}
	queued := j.info.Status == StatusQueued && j.info.Attempts == 0
	j.mu.Unlock()
	if queued {
		j.setStatus(StatusCancelled, reason)
	}
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (JobInfo, error) {
	j, ok := m.lookup(id)
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	err := j.hub.wait(ctx)
	return j.snapshotInfo(), err
}

// Front returns the job's Pareto front: the full result for done jobs,
// the partial front for cancelled and timed-out ones. Queued/running/
// failed jobs return ErrNotFinished (wrapped with the state, so callers
// can distinguish not-yet from never). Each call builds the response
// afresh from the job's JobInfo and the packed points it keeps (and
// shares with its StoredResult), so it is the caller's own to change.
// Once the job's record is evicted (see Config.MaxResults) Front returns
// ErrNotFound; a done job's front stays at its ResultVersion in the store
// for as long as the store holds it.
func (m *Manager) Front(id string) (FrontResponse, error) {
	j, ok := m.lookup(id)
	if !ok {
		return FrontResponse{}, ErrNotFound
	}
	j.mu.Lock()
	points, info := j.points, &j.info
	out := FrontResponse{
		JobID:      info.ID,
		Status:     info.Status,
		Scenario:   info.Spec.Scenario,
		Algorithm:  info.Spec.Algorithm,
		Seed:       info.Spec.Seed,
		Evaluated:  j.evaluated,
		Infeasible: j.infeasible,
	}
	j.mu.Unlock()
	// keepFront runs just before the terminal transition: the front is
	// served from that transition on.
	if points == nil || !out.Status.Terminal() {
		return FrontResponse{}, fmt.Errorf("%w (status %s)", ErrNotFinished, out.Status)
	}
	out.Front = points.points()
	return out, nil
}

// Events calls fn with each event of the job's stream after sequence
// number afterSeq, in order, until fn returns false or the stream ends
// after the job's terminal status event; it returns ctx.Err() if ctx
// expires while it waits for the next event. It reads the job's history
// first and then follows it live: every status event, plus the latest
// progress event and the latest island event of each kind, so a reader
// that falls behind skips only superseded events. afterSeq 0 reads the
// whole history; a reconnecting SSE consumer's Last-Event-ID skips what
// it saw, and one past the latest event counts as the latest. It is the
// in-process twin of Client.Events.
func (m *Manager) Events(ctx context.Context, id string, afterSeq int, fn func(Event) bool) error {
	j, ok := m.lookup(id)
	if !ok {
		return ErrNotFound
	}
	return j.hub.follow(ctx, afterSeq, fn)
}

// runJob supervises one job on a manager worker: it runs the job's
// attempts, then closes its telemetry sampler, which returns once the
// obs file is complete, and only then publishes the terminal status, so
// a reader that sees it reads the whole file.
func (m *Manager) runJob(j *job) {
	// j.live is the worker's own until retire releases it.
	live, spec := j.live, &j.info.Spec
	// Release the job's cancel context once the job is over: a child of
	// the manager root stays registered with its parent until cancelled,
	// so skipping this would leak one context node per job for the life
	// of the process.
	defer live.cancel()
	// A job cancelled while queued has a dead context; setStatus keeps
	// the terminal state it may already be in.
	if err := live.ctx.Err(); err != nil {
		j.setStatus(StatusCancelled, err.Error())
		return
	}
	// The telemetry sampler spans every attempt: the window and obs file
	// carry one continuous series with the attempt column distinguishing
	// retries.
	sampler := newJobSampler(m.met, &j.stats, j.info.ID, spec.Scenario, spec.Islands >= 2,
		m.cfg.ObsDir, m.cfg.ObsSampleInterval, m.cfg.Logf)
	status, msg := m.attempts(j, sampler)
	sampler.close()
	j.setStatus(status, msg)
}

// attempts runs the job's attempts under panic recovery, classifies each
// outcome (success, cancelled, deadline, failure), and walks the retry
// edge — backoff, then re-run from the latest checkpoint — until an
// outcome ends the job. It returns the job's terminal status and message
// for runJob to publish.
func (m *Manager) attempts(j *job, sampler *jobSampler) (Status, string) {
	live, spec, id := j.live, &j.info.Spec, j.info.ID
	// The deadline clock starts when the job first runs (queue wait is
	// the scheduler's fault, not the job's) and spans every retry.
	r := &run{job: j, ctx: live.ctx}
	if d, _ := spec.deadline(); d > 0 { // Validate rejected any error
		var cancel context.CancelFunc
		r.ctx, cancel = context.WithTimeoutCause(live.ctx, d, errJobDeadline)
		defer cancel()
	}
	timedOut := fmt.Sprintf("deadline of %gs exceeded", spec.DeadlineSeconds)
	cancelled := context.Canceled.Error()

	for attempt := 1; ; attempt++ {
		j.mu.Lock()
		j.info.Attempts = attempt
		j.info.NextRetryAt = nil
		j.mu.Unlock()
		sampler.setAttempt(attempt)
		if !j.setStatus(StatusRunning, "") {
			// Cancelled before it first ran; runJob's setStatus keeps
			// that status.
			return StatusCancelled, cancelled
		}
		res, err := m.runAttempt(r, sampler)
		switch {
		case err == nil:
			j.keepFront(res)
			m.archive(j)
			return StatusDone, ""
		case errors.Is(err, context.DeadlineExceeded) || context.Cause(r.ctx) == errJobDeadline:
			j.keepFront(res) // partial front, like a cancelled run
			return StatusTimedOut, timedOut
		case errors.Is(err, context.Canceled):
			j.keepFront(res)
			return StatusCancelled, cancelled
		}

		// Attempt failed (error or recovered panic). Out of retries →
		// failed; otherwise walk the retry edge back to queued.
		if attempt > spec.MaxRetries {
			return StatusFailed, err.Error()
		}
		delay := retryDelay(attempt, m.cfg.RetryBaseDelay, m.cfg.RetryMaxDelay)
		next := time.Now().Add(delay)
		j.mu.Lock()
		j.info.NextRetryAt = &next
		j.mu.Unlock()
		j.setStatus(StatusQueued, err.Error())
		m.met.retries.Add(1)
		m.cfg.Logf("service: job %s attempt %d/%d failed, retrying in %s: %v",
			id, attempt, spec.MaxRetries+1, delay.Round(time.Millisecond), err)
		select {
		case <-r.ctx.Done():
			if context.Cause(r.ctx) == errJobDeadline {
				return StatusTimedOut, timedOut
			}
			return StatusCancelled, cancelled
		case <-time.After(delay):
		}
	}
}

// runAttempt executes one attempt under panic recovery: a panicking
// evaluator (or progress/checkpoint hook on the search goroutine) becomes
// a *PanicError carrying the stack, failing the attempt instead of the
// process. A panic on one of the search's pool goroutines arrives as a
// *dse.WorkerPanic, whose value and stack the PanicError takes over.
func (m *Manager) runAttempt(r *run, sampler *jobSampler) (res *dse.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			if wp, ok := p.(*dse.WorkerPanic); ok {
				res, err = nil, &PanicError{Value: wp.Value, Stack: wp.Stack}
				return
			}
			res, err = nil, &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return m.execute(r, sampler)
}

// keepFront makes res, the last attempt's result (nil: none), the front
// Front serves once the job ends, packing its points.
func (j *job) keepFront(res *dse.Result) {
	if res == nil {
		return
	}
	ps := res.Front
	points := packFront(len(ps), func(i int) ([]int, []float64) { return ps[i].Config, ps[i].Objs })
	j.mu.Lock()
	defer j.mu.Unlock()
	j.points, j.evaluated, j.infeasible = points, res.Evaluated, res.Infeasible
}

// archive stores the front keepFront kept for a done job, sharing its
// packed points and its scenario's registered fingerprint. Archiving
// failures degrade gracefully: the job stays done (its front is readable
// via /front) and the failure is logged — a full disk must cost
// durability, not the exploration budget already spent.
func (m *Manager) archive(j *job) {
	j.mu.Lock()
	stored := StoredResult{
		JobID:       j.info.ID,
		Scenario:    j.info.Spec.Scenario,
		Algorithm:   j.info.Spec.Algorithm,
		Objectives:  ObjectivesFull,
		Seed:        j.info.Spec.Seed,
		Evaluated:   j.evaluated,
		Infeasible:  j.infeasible,
		CompletedAt: time.Now(),
	}
	points := j.points
	j.mu.Unlock()
	stored.Fingerprint, _ = scenario.FingerprintOf(stored.Scenario)
	version, err := m.store.put(stored, points)
	if err != nil {
		m.cfg.Logf("service: job %s: archiving result failed (front still served from memory): %v", stored.JobID, err)
		return
	}
	j.mu.Lock()
	j.info.ResultVersion = version
	j.mu.Unlock()
}

// execute materializes the scenario's compiled pipeline, finds the
// attempt's resume point, and runs the spec's search — plain or through
// the island coordinator — under the job's context with progress,
// telemetry and checkpoint hooks attached.
func (m *Manager) execute(r *run, sampler *jobSampler) (*dse.Result, error) {
	j := r.job
	spec := &j.info.Spec
	search := spec.search()
	sc, ok := scenario.Lookup(spec.Scenario)
	if !ok {
		return nil, fmt.Errorf("scenario %q disappeared from the registry", spec.Scenario)
	}
	problem, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
	if err != nil {
		return nil, err
	}
	compiled, err := problem.Compile()
	if err != nil {
		return nil, err
	}
	eval := compiled.Evaluator()
	resume, err := m.resumePoint(r)
	if err != nil {
		return nil, err
	}
	if spec.Islands >= 2 {
		return m.executeIslands(r, sampler, problem.Space(), eval, resume)
	}

	// One boundary handler: fault hook, progress, telemetry.
	start := time.Now()
	opts := dse.Options{
		Context: r.ctx,
		Stats: func(st dse.Stats) {
			faultinject.Boundary(j.info.ID, 0, st.Step)
			elapsed := time.Since(start).Seconds()
			info := ProgressInfo{
				Step:       st.Step,
				TotalSteps: st.TotalSteps,
				Evaluated:  st.Evaluated,
				Infeasible: st.Infeasible,
				FrontSize:  len(st.Front),
				ElapsedSec: elapsed,
			}
			if elapsed > 0 {
				info.EvalsPerSec = float64(st.Evaluated) / elapsed
			}
			j.mu.Lock()
			j.info.Progress = &info
			j.mu.Unlock()
			j.hub.publish(Event{Type: "progress", Progress: &info})
			sampler.observeSearch(st)
		},
		CheckpointEvery: spec.CheckpointEvery,
	}
	if resume != nil {
		opts.Resume = resume[0]
	}
	// Warm-start resolution happens here — on the worker, not at Submit —
	// so the seeds reflect the store's contents when the job actually
	// starts (a queued job can inherit fronts finished ahead of it). It
	// runs once per job, not per attempt: the resolved seeds are cached on
	// the run so a retry cannot pick up fronts archived since attempt one
	// and drift onto a different trajectory. A resumed attempt passes the
	// seeds too; dse ignores them there, since the snapshot fixes the
	// trajectory. Only an algorithm that takes injected points can use
	// seeds.
	if search.Injectable() {
		if !r.resolved {
			fingerprint, _ := scenario.FingerprintOf(spec.Scenario)
			seeds, wsInfo, err := ResolveWarmStart(m.store, spec.WarmStart,
				fingerprint, ObjectivesFull, spec.Algorithm, spec.Scenario, problem.Space())
			if err != nil {
				return nil, err
			}
			r.seeds, r.resolved = seeds, true
			if wsInfo != nil {
				j.mu.Lock()
				j.info.WarmStart = wsInfo
				j.mu.Unlock()
			}
		}
		opts.SeedPoints = r.seeds
	}
	if spec.CheckpointEvery > 0 {
		opts.Checkpoint = func(snap *dse.Snapshot) error {
			m.checkpoint(r, []*dse.Snapshot{snap})
			return nil
		}
	}
	return search.Run(problem.Space(), eval, opts)
}

// executeIslands runs an island job (Spec.Islands >= 2) through the
// island coordinator from resume (nil: a fresh start): the search is
// partitioned across supervised islands with deterministic ring
// migration, island events are published on the job's stream, per-island
// supervision state lands in JobInfo.Islands, and every migration
// boundary's checkpoint (one snapshot per island) goes through
// Manager.checkpoint.
func (m *Manager) executeIslands(r *run, sampler *jobSampler, space *dse.Space, eval dse.Evaluator, resume []*dse.Snapshot) (*dse.Result, error) {
	j := r.job
	spec := &j.info.Spec
	ijob := island.Job{JobID: j.info.ID, Scenario: spec.Scenario, Search: spec.search()}
	cfg := island.Config{
		Islands:      spec.Islands,
		Interval:     spec.MigrationInterval,
		Migrants:     spec.Migrants,
		StallTimeout: m.cfg.IslandStallTimeout,
		Resume:       resume,
		OnCheckpoint: func(s []*dse.Snapshot) { m.checkpoint(r, s) },
		Stats:        sampler.observeIsland,
	}
	if m.cfg.IslandExec != "" {
		cfg.Runner = &island.ProcRunner{Bin: m.cfg.IslandExec}
	}

	// syncIslands reads the coordinator's supervision state once into
	// JobInfo.Islands and the sampler's round/restarts stamp. OnEvent
	// fires from the coordinator's and the islands' goroutines, all
	// spawned inside Run — strictly after coord is assigned below.
	var coord *island.Coordinator
	syncIslands := func(round int) {
		sts := coord.Status()
		restarts := 0
		for _, st := range sts {
			restarts += st.Restarts
		}
		sampler.setIsland(round, restarts)
		j.mu.Lock()
		j.info.Islands = sts
		j.mu.Unlock()
	}
	cfg.OnEvent = func(e island.Event) {
		switch e.Kind {
		case island.EventRound:
			m.met.islandRounds.Add(1)
		case island.EventRestart:
			m.met.islandRestarts.Add(1)
		}
		syncIslands(e.Round)
		j.hub.publish(Event{Type: "island", Island: &e})
	}

	coord, err := island.New(cfg, ijob, space, eval)
	if err != nil {
		return nil, err
	}
	syncIslands(0)
	res, runErr := coord.Run(r.ctx)
	syncIslands(0)
	return res, runErr
}
