package service

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"wsndse/internal/dse"
	"wsndse/internal/service/faultinject"
)

// islandSpec is the canonical 2-island service job: one migration
// boundary at generation 6, then the final merge.
func islandSpec(seed int64) Spec {
	return Spec{
		Scenario:          "ecg-ward",
		Algorithm:         AlgoNSGA2,
		Seed:              seed,
		Workers:           2,
		Islands:           2,
		MigrationInterval: 6,
		NSGA2:             &dse.NSGA2Config{PopulationSize: 16, Generations: 12},
	}
}

// runIslandJob submits spec on a fresh manager and returns the finished
// job's info and front.
func runIslandJob(t *testing.T, cfg Config, spec Spec) (JobInfo, FrontResponse) {
	t.Helper()
	m := newTestManager(t, cfg)
	defer m.Close()
	return runToDone(t, m, spec)
}

func sameFronts(t *testing.T, a, b FrontResponse, label string) {
	t.Helper()
	if !reflect.DeepEqual(a.Front, b.Front) || a.Evaluated != b.Evaluated || a.Infeasible != b.Infeasible {
		t.Fatalf("%s: fronts differ (%d pts %d evaluated vs %d pts %d evaluated)",
			label, len(a.Front), a.Evaluated, len(b.Front), b.Evaluated)
	}
}

// TestIslandJobLifecycle drives an island job through the Manager: it
// must finish with a front, report per-island supervision state, and
// stream island events.
func TestIslandJobLifecycle(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()
	info, err := m.Submit(islandSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	islandEvents := 0
	err = m.Events(context.Background(), info.ID, 0, func(e Event) bool {
		if e.Type == "island" {
			if e.Island == nil {
				t.Fatal("island event without payload")
			}
			islandEvents++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if islandEvents == 0 {
		t.Error("no island events on the job stream")
	}

	final := waitDone(t, m, info.ID)
	if final.Status != StatusDone {
		t.Fatalf("status %s: %s", final.Status, final.Error)
	}
	if len(final.Islands) != 2 {
		t.Fatalf("JobInfo.Islands has %d entries, want 2", len(final.Islands))
	}
	for _, st := range final.Islands {
		if st.Step != 12 || st.Attempts < 2 {
			t.Errorf("island %d: step=%d attempts=%d, want step 12 and >= 2 attempts", st.Island, st.Step, st.Attempts)
		}
	}
	front, err := m.Front(info.ID)
	if err != nil || len(front.Front) == 0 {
		t.Fatalf("front: %v (%d points)", err, len(front.Front))
	}
}

// TestIslandJobFailoverBitIdentical is the service-level robustness
// claim: an injected island panic mid-run is absorbed by the island
// supervisor within the same job attempt, and the merged front matches
// the undisturbed run bit for bit.
func TestIslandJobFailoverBitIdentical(t *testing.T) {
	_, golden := runIslandJob(t, Config{Workers: 1}, islandSpec(7))

	defer faultinject.Reset()
	faultinject.PanicOnIslandAtStep(1, 3, 1) // mid-round-1 on island 1
	info, front := runIslandJob(t, Config{Workers: 1}, islandSpec(7))
	sameFronts(t, golden, front, "panicked island vs golden")
	if info.Attempts != 1 {
		t.Errorf("island failover escalated to %d job attempts, want 1", info.Attempts)
	}
	restarts := 0
	for _, st := range info.Islands {
		restarts += st.Restarts
	}
	if restarts != 1 {
		t.Errorf("island restarts = %d, want 1", restarts)
	}
}

// TestIslandJobRetryResumesFromComposite: when the island supervisor
// itself gives up (an island exhausted its budget on the runner and then
// inline), the job walks the manager's retry edge and the next attempt
// resumes from the coordinator's composite checkpoint — still
// bit-identical.
func TestIslandJobRetryResumesFromComposite(t *testing.T) {
	_, golden := runIslandJob(t, Config{Workers: 1}, islandSpec(7))

	defer faultinject.Reset()
	// Step 7 sits just past the migration boundary at 6, so attempt one
	// has checkpointed before the faults drain island 0's budget: 3
	// crashes on the runner + 3 inline = 6 failed island attempts.
	faultinject.PanicOnIslandAtStep(0, 7, 6)
	spec := islandSpec(7)
	spec.MaxRetries = 1
	info, front := runIslandJob(t, Config{Workers: 1, RetryBaseDelay: time.Millisecond, RetryMaxDelay: time.Millisecond}, spec)
	sameFronts(t, golden, front, "retried island job vs golden")
	if info.Attempts != 2 {
		t.Errorf("job attempts = %d, want 2 (supervisor exhausted, manager retried)", info.Attempts)
	}
	if info.ResumedFromStep != 6 {
		t.Errorf("resumed from step %d, want 6 (the composite checkpoint)", info.ResumedFromStep)
	}
}

// TestIslandJobResumeJobAcrossManagers is the process-restart story: a
// second manager on the same checkpoint directory resumes a prior island
// job from its per-island checkpoint files via spec.ResumeJob and reproduces
// the same merged front.
func TestIslandJobResumeJobAcrossManagers(t *testing.T) {
	dir := t.TempDir()
	info, golden := runIslandJob(t, Config{Workers: 1, CheckpointDir: dir}, islandSpec(7))

	spec := islandSpec(7)
	spec.ResumeJob = info.ID
	resumed, front := runIslandJob(t, Config{Workers: 1, CheckpointDir: dir}, spec)
	sameFronts(t, golden, front, "resume_job island run vs golden")
	if resumed.ResumedFromStep != 6 {
		t.Errorf("resumed from step %d, want 6 (the last migration boundary)", resumed.ResumedFromStep)
	}
}

func TestIslandSpecValidation(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()
	base := islandSpec(7)
	mutate := func(f func(*Spec)) Spec { s := base; f(&s); return s }
	bad := []Spec{
		mutate(func(s *Spec) { s.Algorithm = AlgoExhaustive; s.NSGA2 = nil }),
		mutate(func(s *Spec) { s.Islands = maxIslands + 1 }),
		mutate(func(s *Spec) { s.Islands = -1; s.MigrationInterval = 0 }),
		mutate(func(s *Spec) { s.WarmStart = WarmStartAuto }),
		mutate(func(s *Spec) { s.CheckpointEvery = 2 }),
		mutate(func(s *Spec) { s.Migrants = maxMigrants + 1 }),
		mutate(func(s *Spec) { s.Islands = 0 }),                                          // migration_interval without islands
		mutate(func(s *Spec) { s.Islands = 1; s.MigrationInterval = 0; s.Migrants = 4 }), // migrants without islands
		mutate(func(s *Spec) { s.ResumeJob = "j1" }),                                     // no CheckpointDir on this manager
	}
	for i, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("bad island spec %d accepted: %+v", i, spec)
		}
	}
}

// TestDrainCancelsAndRejects: Drain rejects new submissions with
// ErrDraining, settles running jobs as cancelled at their next boundary,
// settles queued jobs immediately, and returns once everything is
// terminal.
func TestDrainCancelsAndRejects(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()
	long := smallNSGA2("ecg-ward", 7)
	long.NSGA2 = &dse.NSGA2Config{PopulationSize: 16, Generations: 100000}
	running, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(smallNSGA2("ecg-ward", 8))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first job is actually running so the drain exercises
	// the cooperative-cancel path, not just the queued fast path.
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, _ := m.Get(running.ID)
		if info.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (status %s)", info.Status)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := m.Submit(smallNSGA2("ecg-ward", 9)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		info, _ := m.Get(id)
		if info.Status != StatusCancelled {
			t.Errorf("job %s status %s after drain, want cancelled", id, info.Status)
		}
	}
}
