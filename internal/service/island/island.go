// Package island implements fault-tolerant island-model exploration: one
// job partitioned across N islands, each running the full NSGA-II/MOSA
// search from its own deterministically forked seed, with periodic
// migration of top-k front members around a fixed ring and a final merge
// of the per-island fronts through the incremental Archive.
//
// The design premise is that the merged front is a pure function of
// (job, islands, migration interval, migrant count) and nothing else —
// not of how many executors ran the islands, not of which executor ran
// which island, and not of whether any executor crashed, hung, or was
// killed mid-round. The coordinator runs islands in lock-step rounds:
// every island advances from its checkpoint to the next migration
// boundary (dse.Options.StopAfter), the coordinator exchanges migrants
// on the ring and injects them deterministically (dse.InjectMigrants),
// hands the post-injection composite checkpoint to Config.OnCheckpoint,
// and starts the next round. A crashed island attempt is retried from the
// in-memory post-injection snapshot — bit-identical replay — so failover
// changes wall-clock time, never results. The coordinator does no file
// I/O: persisting checkpoints, and loading them back after a process
// death, is the caller's business (the service writes every island's
// checkpoint files at each migration boundary).
//
// Supervision is budgeted per executor: an executor whose attempts keep
// failing exhausts its restart budget and is declared lost, and its
// islands are redistributed round-robin over the survivors. When every
// executor is lost the coordinator falls back to running islands inline
// (with a final budget of its own), so the job degrades to slower — not
// wrong, and not dead — until genuinely nothing can run.
package island

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wsndse/internal/dse"
	"wsndse/internal/service/faultinject"
)

// Event kinds reported through Config.OnEvent.
const (
	EventRound         = "round"          // island reached a migration boundary (or finished)
	EventMigration     = "migration"      // migrants injected into an island
	EventMigrationDrop = "migration_drop" // a ring transfer was dropped (will be retried)
	EventCrash         = "crash"          // an island attempt failed
	EventRestart       = "restart"        // the island will be retried from its checkpoint
	EventExecutorLost  = "executor_lost"  // an executor exhausted its restart budget
	EventFallback      = "fallback"       // coordinator switched to inline execution
)

// Event is one coordinator observation, published to Config.OnEvent as
// it happens (from coordinator and executor goroutines — the callback
// must be safe for concurrent use and should not block).
type Event struct {
	Kind     string `json:"kind"`
	Island   int    `json:"island"`
	Executor int    `json:"executor"` // -1: the coordinator-inline fallback
	Round    int    `json:"round"`
	Step     int    `json:"step"`
	Error    string `json:"error,omitempty"`
}

// Status is one island's supervision state, embedded in the service's
// JobInfo so /v1/jobs reports per-island attempts and restarts.
type Status struct {
	Island   int `json:"island"`
	Executor int `json:"executor"` // executor that last ran the island; -1: fallback
	Step     int `json:"step"`     // latest boundary the island has passed
	Attempts int `json:"attempts"` // round attempts started
	Restarts int `json:"restarts"` // of those, how many failed and were retried
}

// Config tunes one coordinator. The zero value of every field has a
// sensible default applied by New; only OnEvent/OnCheckpoint stay nil
// when unset.
type Config struct {
	// Islands is the number of logical islands L — the partition of the
	// search, and with Interval/Migrants the *identity* of the run: the
	// merged front depends on it. Required, >= 1.
	Islands int

	// Interval G is the migration period in search boundaries
	// (generations for NSGA-II, chain segments for MOSA): islands pause
	// at steps G, 2G, ... and exchange migrants. Default 5.
	Interval int

	// Migrants k is how many front members each island sends its ring
	// successor at every boundary. Default 4.
	Migrants int

	// Executors is how many islands run concurrently — pure parallelism,
	// with no effect on results. Defaults to Islands; clamped to
	// [1, Islands].
	Executors int

	// StallTimeout arms the heartbeat watchdog: an island attempt that
	// passes no search boundary for this long is cancelled and retried
	// (counting against its executor's budget). 0 disables the watchdog.
	StallTimeout time.Duration

	// Resume restarts the whole coordinator from a composite snapshot
	// previously delivered to OnCheckpoint (or read back from wherever the
	// caller persisted it). The remaining rounds replay the uninterrupted
	// run's exact trajectory.
	Resume *dse.IslandSnapshot

	// OnEvent observes coordinator events; OnCheckpoint receives the
	// composite post-injection snapshot at every migration boundary —
	// the retry anchor a supervisor should keep, and the only way a
	// checkpoint leaves the coordinator, which never touches files. Both
	// may be nil.
	OnEvent      func(Event)
	OnCheckpoint func(*dse.IslandSnapshot)

	// Runner executes island rounds: the in-process GoRunner by default,
	// or a ProcRunner supervising child worker processes.
	Runner Runner

	// Stats receives every island's per-boundary search telemetry
	// (tagged with the island index) when rounds run on the default
	// in-process runner or the inline fallback. It is called from
	// executor goroutines concurrently. A custom Runner that wants stats
	// must wire its own sink (GoRunner.Stats); ProcRunner rounds carry
	// none — see GoRunner's doc for why. May be nil.
	Stats func(island int, s dse.Stats)
}

// maxRestarts is each executor's restart budget (and, separately, the
// inline fallback's): an executor whose attempts fail more than
// maxRestarts times is lost and its islands are redistributed.
const maxRestarts = 2

// errStalled is the cancellation cause of an island attempt that stopped
// heartbeating; errNoExecutors fails the job when every executor and the
// inline fallback have exhausted their budgets.
var (
	errStalled     = errors.New("island: attempt stalled (no heartbeat within StallTimeout)")
	errNoExecutors = errors.New("island: all executors and the inline fallback exhausted their restart budgets")
)

// Coordinator drives one island-model job. Create with New, run with
// Run; Status may be polled concurrently.
type Coordinator struct {
	cfg      Config
	job      Job
	space    *dse.Space
	eval     dse.Evaluator
	runner   Runner
	fallback Runner

	mu           sync.Mutex
	status       []Status
	execRestarts []int
	execLost     []bool
	fbRestarts   int
	fbAnnounced  bool
}

// New validates the job and configuration and builds a coordinator.
func New(cfg Config, job Job, space *dse.Space, eval dse.Evaluator) (*Coordinator, error) {
	if !job.Injectable() {
		return nil, fmt.Errorf("island: algorithm %q does not support island decomposition", job.Algorithm)
	}
	if cfg.Islands < 1 {
		return nil, fmt.Errorf("island: %d islands (want >= 1)", cfg.Islands)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5
	}
	if cfg.Migrants <= 0 {
		cfg.Migrants = 4
	}
	if cfg.Executors <= 0 || cfg.Executors > cfg.Islands {
		cfg.Executors = cfg.Islands
	}
	c := &Coordinator{
		cfg:          cfg,
		job:          job,
		space:        space,
		eval:         eval,
		runner:       cfg.Runner,
		fallback:     &GoRunner{Space: space, Eval: eval, Stats: cfg.Stats},
		status:       make([]Status, cfg.Islands),
		execRestarts: make([]int, cfg.Executors),
		execLost:     make([]bool, cfg.Executors),
	}
	if c.runner == nil {
		c.runner = c.fallback
	}
	for i := range c.status {
		c.status[i] = Status{Island: i, Executor: -1}
	}
	if cfg.Resume != nil {
		if err := cfg.Resume.Validate(job.Algorithm, cfg.Islands, space); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Status returns a copy of the per-island supervision state.
func (c *Coordinator) Status() []Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Status(nil), c.status...)
}

func (c *Coordinator) emit(e Event) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(e)
	}
}

// Run executes the job to completion and returns the merged front. The
// result is bit-identical across executor counts, island crashes,
// executor loss, and coordinator restarts from checkpoints — anything
// short of changing (job, Islands, Interval, Migrants).
func (c *Coordinator) Run(ctx context.Context) (*dse.Result, error) {
	total := c.job.Steps(c.space)
	if total <= 0 {
		return nil, fmt.Errorf("island: job has no search boundaries")
	}
	var boundaries []int
	for b := c.cfg.Interval; b < total; b += c.cfg.Interval {
		boundaries = append(boundaries, b)
	}

	snaps := make([]*dse.Snapshot, c.cfg.Islands)
	start := 0
	if r := c.cfg.Resume; r != nil {
		copy(snaps, r.Islands)
		for start < len(boundaries) && boundaries[start] <= r.Step {
			start++
		}
		c.mu.Lock()
		for i := range c.status {
			c.status[i].Step = r.Step
		}
		c.mu.Unlock()
	}

	for idx := start; idx < len(boundaries); idx++ {
		b, round := boundaries[idx], idx+1
		resps, err := c.wave(ctx, round, b, snaps)
		if err != nil {
			return nil, err
		}
		for i, r := range resps {
			snaps[i] = r.Snapshot
		}
		if err := c.migrate(ctx, round, snaps); err != nil {
			return nil, err
		}
		if c.cfg.OnCheckpoint != nil {
			c.cfg.OnCheckpoint(&dse.IslandSnapshot{
				Version:   dse.IslandSnapshotVersion,
				Algorithm: c.job.Algorithm,
				Round:     round,
				Step:      b,
				Islands:   append([]*dse.Snapshot(nil), snaps...),
			})
		}
	}

	final := len(boundaries) + 1
	resps, err := c.wave(ctx, final, 0, snaps)
	if err != nil {
		return nil, err
	}
	return mergeResults(resps), nil
}

// mergeResults folds the per-island fronts through one Archive batch in
// island order — deterministic regardless of which island finished first.
func mergeResults(resps []*Response) *dse.Result {
	out := &dse.Result{}
	var all []dse.Point
	for _, r := range resps {
		out.Evaluated += r.Result.Evaluated
		out.Infeasible += r.Result.Infeasible
		for _, sp := range r.Result.Front {
			all = append(all, dse.Point{Config: sp.Config, Objs: sp.Objs, Feasible: sp.Feasible})
		}
	}
	var arch dse.Archive
	arch.AddBatch(all)
	out.Front = arch.Points()
	return out
}

// wave runs every island from its current snapshot to stopAfter (0: to
// completion), supervising executors and redistributing islands as
// executors die, and returns all island responses. It is the round
// barrier: no island starts round r+1 until every island finished r.
func (c *Coordinator) wave(ctx context.Context, round, stopAfter int, snaps []*dse.Snapshot) ([]*Response, error) {
	out := make([]*Response, c.cfg.Islands)
	pending := make([]int, c.cfg.Islands)
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		execs, runner := c.aliveExecutors()
		if execs == nil {
			return nil, errNoExecutors
		}
		assign := make(map[int][]int, len(execs))
		for n, isl := range pending {
			e := execs[n%len(execs)]
			assign[e] = append(assign[e], isl)
		}
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			requeue []int
			fatal   error
		)
		for e, islands := range assign {
			wg.Add(1)
			go func(e int, islands []int) {
				defer wg.Done()
				for n, isl := range islands {
					for {
						resp, err := c.attempt(ctx, runner, isl, e, stopAfter, snaps[isl])
						if err == nil {
							mu.Lock()
							out[isl] = resp
							mu.Unlock()
							c.emit(Event{Kind: EventRound, Island: isl, Executor: e, Round: round, Step: c.islandStep(isl)})
							break
						}
						if ctx.Err() != nil {
							mu.Lock()
							fatal = context.Cause(ctx)
							mu.Unlock()
							return
						}
						c.emit(Event{Kind: EventCrash, Island: isl, Executor: e, Round: round, Error: err.Error()})
						if c.noteCrash(e, isl) {
							c.emit(Event{Kind: EventExecutorLost, Island: isl, Executor: e, Round: round, Error: err.Error()})
							mu.Lock()
							requeue = append(requeue, islands[n:]...)
							mu.Unlock()
							return
						}
						c.emit(Event{Kind: EventRestart, Island: isl, Executor: e, Round: round})
					}
				}
			}(e, islands)
		}
		wg.Wait()
		if fatal != nil {
			return nil, fatal
		}
		sort.Ints(requeue)
		pending = requeue
	}
	return out, nil
}

// aliveExecutors returns the executors still within budget and the
// runner to use on them; when all are lost it switches to the inline
// fallback (executor -1), and when that too is exhausted returns nil.
func (c *Coordinator) aliveExecutors() ([]int, Runner) {
	c.mu.Lock()
	var alive []int
	for e, lost := range c.execLost {
		if !lost {
			alive = append(alive, e)
		}
	}
	if len(alive) > 0 {
		c.mu.Unlock()
		return alive, c.runner
	}
	exhausted := c.fbRestarts > maxRestarts
	announce := !c.fbAnnounced && !exhausted
	c.fbAnnounced = true
	c.mu.Unlock()
	if exhausted {
		return nil, nil
	}
	if announce {
		c.emit(Event{Kind: EventFallback, Island: -1, Executor: -1})
	}
	return []int{-1}, c.fallback
}

// noteCrash charges one failed attempt to the executor's budget and
// reports whether the executor is now lost.
func (c *Coordinator) noteCrash(exec, island int) (lost bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.status[island].Restarts++
	if exec < 0 {
		c.fbRestarts++
		return c.fbRestarts > maxRestarts
	}
	c.execRestarts[exec]++
	if c.execRestarts[exec] > maxRestarts {
		c.execLost[exec] = true
		return true
	}
	return false
}

func (c *Coordinator) islandStep(island int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status[island].Step
}

// attempt runs one island round on one executor, guarded by the
// heartbeat watchdog. A stalled attempt is cancelled and — if the runner
// does not honor cancellation promptly (a truly hung in-process
// evaluator cannot be preempted) — abandoned: its eventual result is
// discarded, and the island is retried from its unchanged snapshot.
func (c *Coordinator) attempt(ctx context.Context, runner Runner, island, exec, stopAfter int, resume *dse.Snapshot) (*Response, error) {
	c.mu.Lock()
	c.status[island].Attempts++
	c.status[island].Executor = exec
	c.mu.Unlock()

	actx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	req := Request{
		Job:       c.job,
		Island:    island,
		Executor:  exec,
		Seed:      dse.ForkSeed(c.job.Seed, island),
		StopAfter: stopAfter,
		Resume:    resume,
	}
	var beats atomic.Int64
	beat := func(step int) {
		beats.Add(1)
		c.mu.Lock()
		if step > c.status[island].Step {
			c.status[island].Step = step
		}
		c.mu.Unlock()
	}

	done := make(chan struct{})
	var resp *Response
	var rerr error
	go func() {
		defer func() {
			if p := recover(); p != nil {
				rerr = fmt.Errorf("island %d on executor %d: panic: %v", island, exec, p)
			}
			close(done)
		}()
		resp, rerr = runner.RunRound(actx, req, beat)
	}()

	if stall := c.cfg.StallTimeout; stall > 0 {
		tick := stall / 4
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		seen, last := int64(-1), time.Now()
	watch:
		for {
			select {
			case <-done:
				break watch
			case <-ticker.C:
				if n := beats.Load(); n != seen {
					seen, last = n, time.Now()
					continue
				}
				if time.Since(last) >= stall {
					cancel(errStalled)
					select {
					case <-done:
						break watch
					case <-time.After(tick):
						// Abandoned: resp/rerr are written before
						// close(done) and we return without reading them.
						return nil, fmt.Errorf("island %d on executor %d: %w", island, exec, errStalled)
					}
				}
			}
		}
	} else {
		<-done
	}

	if rerr != nil {
		return nil, rerr
	}
	if err := c.check(island, stopAfter, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// check vets a round's response before the coordinator uses it, since a
// worker process's response is outside input. A paused snapshot must
// pass the job's Search.ValidateResume (as the next round will) and each
// final front point SnapPoint.Validate, both with the evaluator's
// objective count. A failed check fails the attempt, and the island is
// retried from its unchanged snapshot.
func (c *Coordinator) check(island, stopAfter int, resp *Response) error {
	objs := c.eval.NumObjectives()
	switch {
	case stopAfter > 0 && (resp == nil || resp.Snapshot == nil || resp.Snapshot.Step != stopAfter):
		return fmt.Errorf("island %d: round to %d returned no snapshot at that boundary", island, stopAfter)
	case stopAfter > 0:
		if err := c.job.ValidateResume(resp.Snapshot, c.space, objs); err != nil {
			return fmt.Errorf("island %d: round to %d: %w", island, stopAfter, err)
		}
	case resp == nil || resp.Result == nil:
		return fmt.Errorf("island %d: final round returned no result", island)
	default:
		for _, sp := range resp.Result.Front {
			if err := sp.Validate(c.space, objs); err != nil {
				return fmt.Errorf("island %d: final front %w", island, err)
			}
		}
	}
	return nil
}

// migrate exchanges migrants on the ring: every island's outgoing set is
// computed from its boundary snapshot *before* any injection, each ring
// edge is delivered through the faultinject migration point (retrying
// dropped transfers until they succeed — skipping one would change the
// trajectory), and the sets are injected deterministically.
func (c *Coordinator) migrate(ctx context.Context, round int, snaps []*dse.Snapshot) error {
	n := len(snaps)
	if n < 2 {
		return nil
	}
	outs := make([][]dse.SnapPoint, n)
	for i, snap := range snaps {
		outs[i] = dse.MigrantsOut(snap, c.cfg.Migrants)
	}
	for from := 0; from < n; from++ {
		to := (from + 1) % n
		for {
			if err := ctx.Err(); err != nil {
				return context.Cause(ctx)
			}
			err := faultinject.Migration(c.job.JobID, round, from, to)
			if err == nil {
				break
			}
			c.emit(Event{Kind: EventMigrationDrop, Island: to, Executor: -1, Round: round, Error: err.Error()})
			time.Sleep(time.Millisecond)
		}
		inj, err := dse.InjectMigrants(c.space, snaps[to], outs[from])
		if err != nil {
			return err
		}
		snaps[to] = inj
		c.emit(Event{Kind: EventMigration, Island: to, Executor: -1, Round: round, Step: snaps[to].Step})
	}
	return nil
}
