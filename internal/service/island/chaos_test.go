package island

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"wsndse/internal/dse"
	"wsndse/internal/service/faultinject"
)

// collectEvents wires an event recorder into cfg and returns the
// accessor. The coordinator emits from multiple goroutines.
func collectEvents(cfg *Config) func(kind string) int {
	var mu sync.Mutex
	counts := map[string]int{}
	cfg.OnEvent = func(e Event) {
		mu.Lock()
		counts[e.Kind]++
		mu.Unlock()
	}
	return func(kind string) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[kind]
	}
}

// TestIslandPanicFailover: a transient panic in one island mid-round is
// retried from the island's checkpoint and the merged front is
// bit-identical to the undisturbed run — for both algorithms.
func TestIslandPanicFailover(t *testing.T) {
	for _, algo := range []string{"nsga2", "mosa"} {
		t.Run(algo, func(t *testing.T) {
			job, cfg := testJob(algo)
			golden := runCoordinator(t, job, cfg)

			defer faultinject.Reset()
			// Step 5 for nsga2 sits mid-round-2 (boundaries 3,6,9); for
			// mosa (boundaries 2,4,6) it sits mid-round-3.
			faultinject.PanicOnIslandAtStep(2, 5, 1)
			events := collectEvents(&cfg)
			disturbed := runCoordinator(t, job, cfg)
			sameResult(t, golden, disturbed, "panicked island vs golden")
			if events(EventCrash) != 1 || events(EventRestart) != 1 {
				t.Errorf("crash=%d restart=%d events, want 1/1", events(EventCrash), events(EventRestart))
			}
		})
	}
}

// brokenRunner fails every attempt of one island (-1: of every island),
// as a worker that crashes on that island's input would, and runs the
// others through inner.
type brokenRunner struct {
	inner  Runner
	island int
}

func (b *brokenRunner) RunRound(ctx context.Context, req Request, beat Heartbeat) (*Response, error) {
	if b.island < 0 || req.Island == b.island {
		return nil, fmt.Errorf("island %d: worker crashed", req.Island)
	}
	return b.inner.RunRound(ctx, req, beat)
}

// TestIslandFallsBackInline: an island whose every attempt on the runner
// fails exhausts its runner budget in the first round, runs in-process
// from then on, and the job finishes with the golden front — slower,
// never wrong. No other island falls back.
func TestIslandFallsBackInline(t *testing.T) {
	job, cfg := testJob("nsga2")
	golden := runCoordinator(t, job, cfg)

	space := testSpace(12, 4, 3)
	cfg.Runner = &brokenRunner{inner: &GoRunner{Space: space, Eval: &testEval{space: space}}, island: 1}
	events := collectEvents(&cfg)
	c, err := New(cfg, job, space, &testEval{space: space})
	if err != nil {
		t.Fatal(err)
	}
	disturbed, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, golden, disturbed, "inline fallback vs golden")
	if events(EventCrash) != maxRestarts+1 || events(EventFallback) != 1 || events(EventRestart) != maxRestarts+1 {
		t.Errorf("crash=%d fallback=%d restart=%d events, want %d/1/%d",
			events(EventCrash), events(EventFallback), events(EventRestart), maxRestarts+1, maxRestarts+1)
	}
	for _, st := range c.Status() {
		if st.Inline != (st.Island == 1) {
			t.Errorf("island %d: inline=%v", st.Island, st.Inline)
		}
	}
}

// flakyRunner fails the first attempt of each round of one island and
// runs every other attempt through inner: a worker that dies once per
// round, never often enough within one round to exhaust a budget that
// was reset each round.
type flakyRunner struct {
	inner  Runner
	island int

	mu     sync.Mutex
	failed map[int]bool // by Request.StopAfter, one per round
}

func (f *flakyRunner) RunRound(ctx context.Context, req Request, beat Heartbeat) (*Response, error) {
	if req.Island == f.island {
		f.mu.Lock()
		first := !f.failed[req.StopAfter]
		f.failed[req.StopAfter] = true
		f.mu.Unlock()
		if first {
			return nil, fmt.Errorf("island %d: worker crashed", req.Island)
		}
	}
	return f.inner.RunRound(ctx, req, beat)
}

// TestExecutorLostRedistribution: an island's runner failures count over
// the whole job, so one failure in each of rounds 1, 2 and 3 loses the
// island its runner in round 3, and its remaining work moves in-process.
// The merged front is the undisturbed run's.
func TestExecutorLostRedistribution(t *testing.T) {
	job, cfg := testJob("nsga2") // rounds end at generations 3, 6, 9 and 12
	golden := runCoordinator(t, job, cfg)

	space := testSpace(12, 4, 3)
	cfg.Runner = &flakyRunner{inner: &GoRunner{Space: space, Eval: &testEval{space: space}}, island: 1, failed: map[int]bool{}}
	var mu sync.Mutex
	var crashRounds, fallbackRounds []int
	cfg.OnEvent = func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e.Kind {
		case EventCrash:
			crashRounds = append(crashRounds, e.Round)
		case EventFallback:
			fallbackRounds = append(fallbackRounds, e.Round)
		}
	}
	c, err := New(cfg, job, space, &testEval{space: space})
	if err != nil {
		t.Fatal(err)
	}
	disturbed, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, golden, disturbed, "runner lost over rounds vs golden")
	mu.Lock()
	defer mu.Unlock()
	if want := []int{1, 2, 3}; !reflect.DeepEqual(crashRounds, want) {
		t.Errorf("crashes in rounds %v, want %v on island 1 only", crashRounds, want)
	}
	if want := []int{3}; !reflect.DeepEqual(fallbackRounds, want) {
		t.Errorf("fallbacks in rounds %v, want %v on island 1 only", fallbackRounds, want)
	}
	for _, st := range c.Status() {
		restarts := 0
		if st.Island == 1 {
			restarts = maxRestarts + 1
		}
		if st.Inline != (st.Island == 1) || st.Restarts != restarts {
			t.Errorf("island %d: inline=%v restarts=%d, want restarts %d", st.Island, st.Inline, st.Restarts, restarts)
		}
	}
}

// TestAllExecutorsLostFallback: when the runner fails every attempt of
// every island, each island falls back in-process in the first round and
// the coordinator finishes the job inline — slower, never wrong.
func TestAllExecutorsLostFallback(t *testing.T) {
	job, cfg := testJob("nsga2")
	golden := runCoordinator(t, job, cfg)

	space := testSpace(12, 4, 3)
	cfg.Runner = &brokenRunner{inner: &GoRunner{Space: space, Eval: &testEval{space: space}}, island: -1}
	events := collectEvents(&cfg)
	c, err := New(cfg, job, space, &testEval{space: space})
	if err != nil {
		t.Fatal(err)
	}
	disturbed, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, golden, disturbed, "every runner lost vs golden")
	n := cfg.Islands
	if events(EventCrash) != n*(maxRestarts+1) || events(EventFallback) != n || events(EventRestart) != n*(maxRestarts+1) {
		t.Errorf("crash=%d fallback=%d restart=%d events, want %d/%d/%d",
			events(EventCrash), events(EventFallback), events(EventRestart), n*(maxRestarts+1), n, n*(maxRestarts+1))
	}
	for _, st := range c.Status() {
		if !st.Inline {
			t.Errorf("island %d did not fall back in-process", st.Island)
		}
	}
}

// TestFallbackExhaustedFailsCleanly: when even inline execution keeps
// dying the job fails with a diagnosable error instead of spinning.
func TestFallbackExhaustedFailsCleanly(t *testing.T) {
	job, cfg := testJob("nsga2")
	defer faultinject.Reset()
	faultinject.SetBoundaryHook(func(jobID string, island, step int) {
		if step == 5 {
			panic(faultinject.InjectedIslandPanic{JobID: jobID, Island: island, Step: step})
		}
	})
	space := testSpace(12, 4, 3)
	c, err := New(cfg, job, space, &testEval{space: space})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background())
	if !errors.Is(err, errExhausted) {
		t.Fatalf("err = %v, want errExhausted", err)
	}
}

// hangingRunner wraps a Runner, hanging the first attempt on one island
// until the watchdog's cancellation arrives.
type hangingRunner struct {
	inner  Runner
	island int
	once   sync.Once
}

func (h *hangingRunner) RunRound(ctx context.Context, req Request, beat Heartbeat) (*Response, error) {
	hang := false
	if req.Island == h.island {
		h.once.Do(func() { hang = true })
	}
	if hang {
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}
	return h.inner.RunRound(ctx, req, beat)
}

// TestStallWatchdogRecovers: an island that stops heartbeating is
// cancelled, retried, and the merged front is unchanged.
func TestStallWatchdogRecovers(t *testing.T) {
	job, cfg := testJob("nsga2")
	golden := runCoordinator(t, job, cfg)

	space := testSpace(12, 4, 3)
	cfg.StallTimeout = 100 * time.Millisecond
	cfg.Runner = &hangingRunner{inner: &GoRunner{Space: space, Eval: &testEval{space: space}}, island: 1}
	events := collectEvents(&cfg)
	start := time.Now()
	disturbed := runCoordinator(t, job, cfg)
	sameResult(t, golden, disturbed, "stalled island vs golden")
	if events(EventCrash) != 1 {
		t.Errorf("crash events = %d, want 1", events(EventCrash))
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("watchdog recovery took %v", elapsed)
	}
}

// damagingRunner wraps a Runner and damages island 1's first paused
// response (final: its first final response) once, as a worker process
// writing a well-formed but wrong NDJSON response would.
type damagingRunner struct {
	inner  Runner
	final  bool
	damage func(*Response)
	once   sync.Once
}

func (d *damagingRunner) RunRound(ctx context.Context, req Request, beat Heartbeat) (*Response, error) {
	resp, err := d.inner.RunRound(ctx, req, beat)
	if err == nil && req.Island == 1 && (req.StopAfter == 0) == d.final {
		d.once.Do(func() { d.damage(resp) })
	}
	return resp, err
}

// TestDamagedResponseRetried: a round response that would panic the
// migration, poison the island's snapshot, fail every retry of the next
// round or corrupt the merged front fails its attempt instead, and the
// island is retried from its unchanged snapshot to the undisturbed run's
// front.
func TestDamagedResponseRetried(t *testing.T) {
	goldens := map[string]*dse.Result{}
	cases := []struct {
		name   string
		algo   string
		final  bool
		damage func(*Response)
	}{
		{"empty ranking", "nsga2", false, func(r *Response) { r.Snapshot.Ranks, r.Snapshot.Crowd = nil, nil }},
		{"one-objective archive", "nsga2", false, func(r *Response) {
			for i := range r.Snapshot.Archive {
				r.Snapshot.Archive[i].Objs = r.Snapshot.Archive[i].Objs[:1]
			}
		}},
		{"other algorithm", "nsga2", false, func(r *Response) { r.Snapshot.Algorithm = "mosa" }},
		{"short population", "nsga2", false, func(r *Response) {
			s := r.Snapshot
			n := len(s.Population) - 2
			s.Population, s.Ranks, s.Crowd = s.Population[:n], s.Ranks[:n], s.Crowd[:n]
		}},
		{"missing chain", "mosa", false, func(r *Response) { r.Snapshot.Chains = r.Snapshot.Chains[1:] }},
		{"one-objective front point", "nsga2", true, func(r *Response) { r.Result.Front[0].Objs = r.Result.Front[0].Objs[:1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job, cfg := testJob(tc.algo)
			golden := goldens[tc.algo]
			if golden == nil {
				golden = runCoordinator(t, job, cfg)
				goldens[tc.algo] = golden
			}
			space := testSpace(12, 4, 3)
			cfg.Runner = &damagingRunner{inner: &GoRunner{Space: space, Eval: &testEval{space: space}}, final: tc.final, damage: tc.damage}
			var mu sync.Mutex
			crashes, restarts := map[int]int{}, map[int]int{}
			cfg.OnEvent = func(e Event) {
				mu.Lock()
				defer mu.Unlock()
				switch e.Kind {
				case EventCrash:
					crashes[e.Island]++
				case EventRestart:
					restarts[e.Island]++
				}
			}
			sameResult(t, golden, runCoordinator(t, job, cfg), "damaged response vs golden")
			mu.Lock()
			defer mu.Unlock()
			if want := map[int]int{1: 1}; !reflect.DeepEqual(crashes, want) || !reflect.DeepEqual(restarts, want) {
				t.Errorf("crash events %v, restart events %v, want one of each for island 1", crashes, restarts)
			}
		})
	}
}

// TestDroppedMigrationsRetried: dropped ring transfers are retried until
// delivered — lossy exchange shifts timing, not the trajectory.
func TestDroppedMigrationsRetried(t *testing.T) {
	job, cfg := testJob("mosa")
	golden := runCoordinator(t, job, cfg)

	defer faultinject.Reset()
	faultinject.DropMigrations(5)
	events := collectEvents(&cfg)
	disturbed := runCoordinator(t, job, cfg)
	sameResult(t, golden, disturbed, "lossy migration vs golden")
	if events(EventMigrationDrop) != 5 {
		t.Errorf("migration_drop events = %d, want 5", events(EventMigrationDrop))
	}
}

// TestCancelPropagates: cancelling the job context fails the run with
// the cancellation cause, not a retry storm.
func TestCancelPropagates(t *testing.T) {
	job, cfg := testJob("nsga2")
	space := testSpace(12, 4, 3)
	c, err := New(cfg, job, space, &testEval{space: space})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, st := range c.Status() {
		if st.Restarts != 0 {
			t.Errorf("island %d retried a cancelled run %d times", st.Island, st.Restarts)
		}
	}
}

// TestCrashEventCarriesInjectedPayload pins the diagnosability contract:
// a failed island attempt's event names the injected fault.
func TestCrashEventCarriesInjectedPayload(t *testing.T) {
	job, cfg := testJob("nsga2")
	defer faultinject.Reset()
	faultinject.PanicOnIslandAtStep(0, 5, 1)
	var mu sync.Mutex
	var crashErr string
	cfg.OnEvent = func(e Event) {
		if e.Kind == EventCrash {
			mu.Lock()
			crashErr = e.Error
			mu.Unlock()
		}
	}
	runCoordinator(t, job, cfg)
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(crashErr, "injected panic") || !strings.Contains(crashErr, "island 0") {
		t.Fatalf("crash event error %q does not identify the injected fault", crashErr)
	}
}
