package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/service/faultinject"
	"wsndse/internal/service/island"
)

// smallNSGA2 is the cheap job every test reaches for.
func smallNSGA2(scenarioName string, seed int64) Spec {
	return Spec{
		Scenario:  scenarioName,
		Algorithm: AlgoNSGA2,
		Seed:      seed,
		Workers:   2,
		NSGA2:     &dse.NSGA2Config{PopulationSize: 8, Generations: 6},
	}
}

// newTestManager opens a Manager, failing the test on error.
func newTestManager(tb testing.TB, cfg Config) *Manager {
	tb.Helper()
	m, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func waitDone(t testing.TB, m *Manager, id string) JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	info, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for %s: %v (status %s)", id, err, info.Status)
	}
	return info
}

// waitRetained polls until m holds want job records. A finished job's
// Wait returns before its worker retires it, and retiring is what
// drops the oldest finished record past the bound.
func waitRetained(t *testing.T, m *Manager, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(m.Jobs()) != want {
		if time.Now().After(deadline) {
			t.Fatalf("manager holds %d job records, want %d", len(m.Jobs()), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobLifecycle(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	defer m.Close()

	info, err := m.Submit(smallNSGA2("ecg-ward", 7))
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Status.Terminal() {
		t.Fatalf("fresh job info %+v", info)
	}
	final := waitDone(t, m, info.ID)
	if final.Status != StatusDone {
		t.Fatalf("status %s (%s), want done", final.Status, final.Error)
	}
	if final.ResultVersion == 0 {
		t.Fatal("done job has no result version")
	}
	if final.Progress == nil || final.Progress.Step != final.Progress.TotalSteps {
		t.Fatalf("final progress %+v", final.Progress)
	}
	front, err := m.Front(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Front) == 0 || front.Scenario != "ecg-ward" || front.Algorithm != AlgoNSGA2 {
		t.Fatalf("front %+v", front)
	}
	stored, ok := m.Store().Get(final.ResultVersion)
	if !ok || stored.JobID != info.ID || len(stored.Front) != len(front.Front) {
		t.Fatalf("stored result %+v", stored)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()
	bad := []Spec{
		{},
		{Scenario: "no-such-scenario", Algorithm: AlgoNSGA2},
		{Scenario: "ecg-ward", Algorithm: "gradient-descent"},
		{Scenario: "ecg-ward", Algorithm: AlgoNSGA2, NSGA2: &dse.NSGA2Config{PopulationSize: 7}},
		{Scenario: "ecg-ward", Algorithm: AlgoMOSA, MOSA: &dse.MOSAConfig{Cooling: 1.5}},
		{Scenario: "ecg-ward", Algorithm: AlgoNSGA2, Workers: 1000},
		{Scenario: "ecg-ward", Algorithm: AlgoNSGA2, CheckpointEvery: -1},
		{Scenario: "ecg-ward", Algorithm: AlgoRandom, Budget: -1},
		{Scenario: "ecg-ward", Algorithm: AlgoExhaustive, MaxPoints: -1},
		// Past the range of time.Duration: converting it would overflow
		// into a negative timeout that ends the job at once.
		{Scenario: "ecg-ward", Algorithm: AlgoNSGA2, DeadlineSeconds: 1e11},
	}
	for i, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
}

// TestSpecSearchBufferCaps: nsga2.population_size and mosa.restarts size
// buffers a search allocates before its first boundary, so Validate caps
// both. A spec at each cap passes, and one a step above it fails.
func TestSpecSearchBufferCaps(t *testing.T) {
	nsga2 := func(pop int) Spec {
		return Spec{Scenario: "ecg-ward", Algorithm: AlgoNSGA2, NSGA2: &dse.NSGA2Config{PopulationSize: pop}}
	}
	mosa := func(chains int) Spec {
		return Spec{Scenario: "ecg-ward", Algorithm: AlgoMOSA, MOSA: &dse.MOSAConfig{Restarts: chains}}
	}
	for _, tc := range []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"population at cap", nsga2(maxPopulation), true},
		{"population above cap", nsga2(maxPopulation + 2), false}, // sizes are even
		{"chains at cap", mosa(maxChains), true},
		{"chains above cap", mosa(maxChains + 1), false},
	} {
		if err := tc.spec.normalize().Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want accepted %v", tc.name, err, tc.ok)
		}
	}
}

// TestDeterminismUnderConcurrency is the multi-tenant determinism
// guarantee: a seeded job's front is bit-identical whether it runs alone
// on a single-worker manager or alongside seven other jobs on a
// four-worker one.
func TestDeterminismUnderConcurrency(t *testing.T) {
	solo := newTestManager(t, Config{Workers: 1})
	info, err := solo.Submit(smallNSGA2("mixed-ward", 42))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, solo, info.ID)
	want, err := solo.Front(info.ID)
	solo.Close()
	if err != nil {
		t.Fatal(err)
	}

	busy := newTestManager(t, Config{Workers: 4})
	defer busy.Close()
	var ids []string
	for i := 0; i < 4; i++ { // noise: other scenarios, other seeds
		for _, spec := range []Spec{
			smallNSGA2("ecg-ward", int64(100+i)),
			{Scenario: "athletes", Algorithm: AlgoRandom, Seed: int64(i), Budget: 512, Workers: 2},
		} {
			in, err := busy.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, in.ID)
		}
	}
	target, err := busy.Submit(smallNSGA2("mixed-ward", 42))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, busy, target.ID)
	got, err := busy.Front(target.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Front, got.Front) {
		t.Fatalf("front differs under load:\nsolo %+v\nbusy %+v", want.Front, got.Front)
	}
	if want.Evaluated != got.Evaluated || want.Infeasible != got.Infeasible {
		t.Fatalf("counts differ under load: (%d,%d) vs (%d,%d)",
			want.Evaluated, want.Infeasible, got.Evaluated, got.Infeasible)
	}
	for _, id := range ids {
		waitDone(t, busy, id)
	}
}

// TestCheckpointResumeBitIdentical is the determinism proof at service
// level, per registered scenario: run a seeded NSGA-II job
// uninterrupted; run it again with checkpointing and kill it mid-run;
// resume a third job from the killed job's durable checkpoint via
// resume_job; the resumed front must match the uninterrupted front bit
// for bit.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, sc := range scenario.List() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			m := newTestManager(t, Config{Workers: 2, CheckpointDir: dir})
			defer m.Close()

			spec := Spec{
				Scenario:  sc.Name,
				Algorithm: AlgoNSGA2,
				Seed:      11,
				Workers:   2,
				NSGA2:     &dse.NSGA2Config{PopulationSize: 12, Generations: 30},
			}
			ref, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, m, ref.ID)
			want, err := m.Front(ref.ID)
			if err != nil {
				t.Fatal(err)
			}

			// Kill a checkpointing twin once its first snapshot lands.
			spec.CheckpointEvery = 3
			victim, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			// A job that finishes before we could kill it is still a
			// valid resume source.
			err = m.Events(context.Background(), victim.ID, 0, func(e Event) bool {
				if e.Type == "progress" && e.Progress.Step >= 3 {
					m.Cancel(victim.ID)
					return false
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			stopped := waitDone(t, m, victim.ID)
			// The durable checkpoint resume_job reads is the victim's
			// last one: the latest multiple of checkpoint_every the run
			// passed, short of its final boundary.
			ckpt, err := LoadCheckpoint(dir, victim.ID, 1)
			if err != nil {
				t.Fatal(err)
			}
			fromDisk := ckpt[0]
			last := stopped.Progress.Step
			if last == stopped.Progress.TotalSteps {
				last--
			}
			if step := last / 3 * 3; fromDisk.Step != step || fromDisk.Algorithm != spec.Algorithm {
				t.Fatalf("disk snapshot is a %s run at step %d, want nsga2 at step %d (victim stopped at %d)",
					fromDisk.Algorithm, fromDisk.Step, step, stopped.Progress.Step)
			}

			resumeSpec := spec
			resumeSpec.ResumeJob = victim.ID
			resumed, err := m.Submit(resumeSpec)
			if err != nil {
				t.Fatal(err)
			}
			info := waitDone(t, m, resumed.ID)
			if info.Status != StatusDone {
				t.Fatalf("resumed job %s: %s", info.Status, info.Error)
			}
			if info.ResumedFromStep != fromDisk.Step {
				t.Fatalf("ResumedFromStep=%d, want %d", info.ResumedFromStep, fromDisk.Step)
			}
			got, err := m.Front(resumed.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Front, got.Front) {
				t.Fatalf("resumed front differs from uninterrupted run:\nwant %+v\ngot  %+v", want.Front, got.Front)
			}
		})
	}
}

// TestMOSACheckpointResume covers the second algorithm family end to end
// at service level.
func TestMOSACheckpointResume(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, CheckpointDir: t.TempDir()})
	defer m.Close()
	spec := Spec{
		Scenario:  "ecg-ward",
		Algorithm: AlgoMOSA,
		Seed:      3,
		Workers:   2,
		MOSA:      &dse.MOSAConfig{Iterations: 4000, Restarts: 4},
	}
	ref, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, ref.ID)
	want, err := m.Front(ref.ID)
	if err != nil {
		t.Fatal(err)
	}

	spec.CheckpointEvery = 1
	victim, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Events(context.Background(), victim.ID, 0, func(e Event) bool {
		if e.Type == "progress" && e.Progress.Step >= 1 {
			m.Cancel(victim.ID)
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, victim.ID)
	resumeSpec := spec
	resumeSpec.ResumeJob = victim.ID
	resumed, err := m.Submit(resumeSpec)
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, m, resumed.ID); info.Status != StatusDone || info.ResumedFromStep < 1 {
		t.Fatalf("resumed job %s from step %d (%s)", info.Status, info.ResumedFromStep, info.Error)
	}
	got, err := m.Front(resumed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Front, got.Front) {
		t.Fatalf("resumed MOSA front differs:\nwant %+v\ngot  %+v", want.Front, got.Front)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()
	// Occupy the single worker with a job big enough that cancellation is
	// the only way it ends, then cancel one still queued behind it.
	first, err := m.Submit(Spec{
		Scenario: "ecg-ward", Algorithm: AlgoNSGA2, Seed: 1, Workers: 1,
		NSGA2: &dse.NSGA2Config{PopulationSize: 16, Generations: 1000000},
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(smallNSGA2("ecg-ward", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, m, queued.ID)
	if info.Status != StatusCancelled {
		t.Fatalf("queued-then-cancelled job is %s", info.Status)
	}
	if _, err := m.Front(queued.ID); err == nil {
		t.Fatal("cancelled-before-start job should have no front")
	}
	// Let the first job make observable progress before killing it, so the
	// cancel lands mid-run and the partial front survives.
	err = m.Events(context.Background(), first.ID, 0, func(e Event) bool {
		return e.Type != "progress"
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	info = waitDone(t, m, first.ID)
	if info.Status != StatusCancelled {
		t.Fatalf("running-then-cancelled job is %s", info.Status)
	}
	// A cancelled running job keeps its partial front.
	if front, err := m.Front(first.ID); err != nil || front.Status != StatusCancelled || len(front.Front) == 0 {
		t.Fatalf("partial front: %+v, %v", front, err)
	}
}

func TestQueueFull(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueLimit: 1})
	defer m.Close()
	specs := smallNSGA2("ecg-ward", 1)
	if _, err := m.Submit(specs); err != nil {
		t.Fatal(err)
	}
	// Fill the queue (worker may have grabbed the first job already, so
	// submit until the queue rejects; it must happen within 3 submissions).
	var sawFull bool
	var accepted int
	for i := 0; i < 3; i++ {
		if _, err := m.Submit(specs); err != nil {
			if err != ErrQueueFull {
				t.Fatalf("unexpected error %v", err)
			}
			sawFull = true
			break
		}
		accepted++
	}
	if !sawFull {
		t.Fatal("queue never reported full")
	}
	// Rejected submissions must leave no phantom job records behind.
	if got := len(m.Jobs()); got != accepted+1 {
		t.Fatalf("%d job records after rejection, want %d", got, accepted+1)
	}
}

// mustPut stores r, failing the test on error.
func mustPut(t *testing.T, s *Store, r StoredResult) int {
	t.Helper()
	v, err := s.Put(r)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestStoreVersioning(t *testing.T) {
	s, err := NewStore(StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, total := s.Query(ResultQuery{Limit: 1}); len(got) != 0 || total != 0 {
		t.Fatal("empty store claims a latest result")
	}
	v1 := mustPut(t, s, StoredResult{Scenario: "a", Algorithm: "nsga2", Fingerprint: "fpA", Objectives: ObjectivesFull})
	v2 := mustPut(t, s, StoredResult{Scenario: "a", Algorithm: "mosa", Fingerprint: "fpA", Objectives: ObjectivesFull})
	v3 := mustPut(t, s, StoredResult{Scenario: "b", Algorithm: "nsga2", Fingerprint: "fpB", Objectives: ObjectivesFull})
	if v1 != 1 || v2 != 2 || v3 != 3 {
		t.Fatalf("versions %d,%d,%d", v1, v2, v3)
	}
	if got, total := s.Query(ResultQuery{Scenario: "a"}); len(got) != 2 || total != 2 {
		t.Fatalf("Query(a) returned %d results (total %d)", len(got), total)
	}
	// Matches come back newest-first.
	if got, _ := s.Query(ResultQuery{Algorithm: "nsga2"}); len(got) != 2 || got[0].Version != 3 || got[1].Version != 1 {
		t.Fatalf("Query(nsga2) = %+v", got)
	}
	if latest, _ := s.Query(ResultQuery{Scenario: "a", Limit: 1}); len(latest) != 1 || latest[0].Version != 2 {
		t.Fatalf("newest for scenario a = %+v", latest)
	}
	if _, ok := s.Get(0); ok {
		t.Fatal("Get(0) succeeded")
	}
	if r, ok := s.Get(3); !ok || r.Scenario != "b" {
		t.Fatalf("Get(3) = %+v", r)
	}
	// The content key is derived and queryable through the exact-key
	// index.
	wantKey := ResultKey("fpA", ObjectivesFull, "nsga2")
	if r, _ := s.Get(1); r.Key != wantKey {
		t.Fatalf("v1 key %q, want %q", r.Key, wantKey)
	}
	if got, total := s.Query(ResultQuery{Key: wantKey}); total != 1 || len(got) != 1 || got[0].Version != 1 {
		t.Fatalf("Query(key) = %+v (total %d)", got, total)
	}
	// Pagination: limit/offset window the newest-first order.
	if got, total := s.Query(ResultQuery{Limit: 2}); total != 3 || len(got) != 2 || got[0].Version != 3 {
		t.Fatalf("page 1 = %+v (total %d)", got, total)
	}
	if got, total := s.Query(ResultQuery{Limit: 2, Offset: 2}); total != 3 || len(got) != 1 || got[0].Version != 1 {
		t.Fatalf("page 2 = %+v (total %d)", got, total)
	}
}

// history returns the events h holds after afterSeq, without waiting for
// more.
func history(h *hub, afterSeq int) []Event {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out []Event
	_ = h.follow(ctx, afterSeq, func(e Event) bool {
		out = append(out, e)
		return true
	})
	return out
}

// awaitReader returns once a reader waits on h for its next event; no
// other reader may have waited on h since its last publish.
func awaitReader(h *hub) {
	for {
		h.mu.Lock()
		waiting := h.wake != nil
		h.mu.Unlock()
		if waiting {
			return
		}
		runtime.Gosched()
	}
}

// TestHubReplayAndLaggingFollower: a job's history keeps every status
// event, the latest progress event and the latest island event of each
// kind, so a follower that reads late skips only superseded events.
func TestHubReplayAndLaggingFollower(t *testing.T) {
	var h hub
	h.publish(Event{Type: "status", Status: StatusQueued})
	for i := 0; i < 5; i++ {
		h.publish(Event{Type: "progress", Progress: &ProgressInfo{Step: i + 1}})
	}
	// Replay keeps the lifecycle event and only the latest progress.
	replay := history(&h, 0)
	if len(replay) != 2 || replay[0].Status != StatusQueued || replay[1].Progress.Step != 5 {
		t.Fatalf("replay %+v", replay)
	}
	h.publish(Event{Type: "status", Status: StatusDone})
	h.close()
	// Following a closed hub reads its history and returns.
	after := history(&h, 0)
	if len(after) != 3 || after[2].Status != StatusDone {
		t.Fatalf("post-close replay %+v", after)
	}
	if err := h.follow(context.Background(), after[2].Seq, func(Event) bool { return true }); err != nil {
		t.Fatalf("following a closed hub past its end: %v", err)
	}

	// retried publishes the rest of a job whose first attempt failed after
	// 300 boundaries, and ends its stream.
	retried := func(h *hub) {
		h.publish(Event{Type: "status", Status: StatusRunning, Attempt: 1})
		for i := 0; i < 300; i++ {
			h.publish(Event{Type: "progress", Attempt: 1, Progress: &ProgressInfo{Step: i + 1}})
		}
		h.publish(Event{Type: "status", Status: StatusQueued, Attempt: 1, Error: "injected panic"})
		h.publish(Event{Type: "status", Status: StatusRunning, Attempt: 2})
		h.publish(Event{Type: "status", Status: StatusDone, Attempt: 2})
		h.close()
	}
	statusTrace := func(events []Event) (trace []string) {
		for _, e := range events {
			if e.Type == "status" {
				trace = append(trace, fmt.Sprintf("%s@%d", e.Status, e.Attempt))
			}
		}
		return trace
	}
	want := []string{"queued@0", "running@1", "queued@1", "running@2", "done@2"}

	// A follower that starts after queued@0 (seq 1) and reads only once
	// the job has ended gets every later status event, in order.
	var lagging hub
	lagging.publish(Event{Type: "status", Status: StatusQueued})
	retried(&lagging)
	if got := statusTrace(history(&lagging, 1)); !reflect.DeepEqual(got, want[1:]) {
		t.Fatalf("lagging follower read status trace %v, want %v", got, want[1:])
	}

	// So do followers that read while the job runs, in Seq order.
	var racing hub
	racing.publish(Event{Type: "status", Status: StatusQueued})
	traces := make([][]Event, 4)
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = racing.follow(context.Background(), 0, func(e Event) bool {
				traces[i] = append(traces[i], e)
				return true
			})
		}()
	}
	retried(&racing)
	wg.Wait()
	for i, trace := range traces {
		if got := statusTrace(trace); !reflect.DeepEqual(got, want) {
			t.Errorf("follower %d read status trace %v, want %v", i, got, want)
		}
		for k := 1; k < len(trace); k++ {
			if trace[k].Seq <= trace[k-1].Seq {
				t.Errorf("follower %d read seq %d after %d", i, trace[k].Seq, trace[k-1].Seq)
			}
		}
	}

	// Island events published back to back all reach a follower that
	// reads afterwards; a round replaces only the previous round.
	var isl hub
	kinds := []string{island.EventRound, island.EventCrash, island.EventFallback, island.EventRestart, island.EventRound}
	for i, kind := range kinds {
		isl.publish(Event{Type: "island", Island: &island.Event{Kind: kind, Island: 1, Round: i}})
	}
	var got []string
	for _, e := range history(&isl, 0) {
		got = append(got, e.Island.Kind)
	}
	if want := kinds[1:]; !reflect.DeepEqual(got, want) {
		t.Fatalf("late follower read island events %v, want %v", got, want)
	}
}

// TestHubFollowZeroAllocs: following a job's history allocates nothing,
// so an SSE stream, a Wait or a Drain costs no buffer of its own.
func TestHubFollowZeroAllocs(t *testing.T) {
	var h hub
	h.publish(Event{Type: "status", Status: StatusQueued})
	h.publish(Event{Type: "status", Status: StatusRunning, Attempt: 1})
	h.publish(Event{Type: "progress", Progress: &ProgressInfo{Step: 1}})
	ctx := context.Background()
	read := 0
	untilProgress := func(e Event) bool {
		read++
		return e.Type != "progress"
	}
	allocs := testing.AllocsPerRun(100, func() {
		read = 0
		if err := h.follow(ctx, 0, untilProgress); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || read != 3 {
		t.Fatalf("following an open hub's history read %d events with %v allocations, want 3 with 0", read, allocs)
	}
}

func TestManagerClose(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		info, err := m.Submit(Spec{
			Scenario: "ecg-ward", Algorithm: AlgoNSGA2, Seed: int64(i), Workers: 1,
			NSGA2: &dse.NSGA2Config{PopulationSize: 16, Generations: 80},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	m.Close()
	for _, id := range ids {
		info, ok := m.Get(id)
		if !ok || !info.Status.Terminal() {
			t.Fatalf("job %s not terminal after Close: %+v", id, info)
		}
	}
	if _, err := m.Submit(smallNSGA2("ecg-ward", 9)); err != ErrClosed {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

func TestSpecNormalizeDefaults(t *testing.T) {
	s := Spec{Scenario: "ecg-ward", Algorithm: AlgoRandom}.normalize()
	if s.Workers != 1 || s.Budget != 4096 || s.MaxPoints != 200000 {
		t.Fatalf("normalized %+v", s)
	}
}

func TestExhaustiveRejectsHugeSpace(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()
	info, err := m.Submit(Spec{Scenario: "ecg-ward", Algorithm: AlgoExhaustive, MaxPoints: 1000})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, info.ID)
	if final.Status != StatusFailed {
		t.Fatalf("huge exhaustive job is %s, want failed", final.Status)
	}
	if final.Error == "" {
		t.Fatal("failed job carries no error")
	}
}

func TestJobsOrderStable(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	defer m.Close()
	var want []string
	for i := 0; i < 5; i++ {
		info, err := m.Submit(Spec{Scenario: "ecg-ward", Algorithm: AlgoRandom, Seed: int64(i), Budget: 64, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, info.ID)
	}
	got := m.Jobs()
	if len(got) != len(want) {
		t.Fatalf("Jobs() returned %d entries", len(got))
	}
	for i, info := range got {
		if info.ID != want[i] {
			t.Fatalf("Jobs()[%d] = %s, want %s", i, info.ID, want[i])
		}
	}
	for _, id := range want {
		waitDone(t, m, id)
	}
	if fmt.Sprintf("j%d", len(want)) != want[len(want)-1] {
		t.Fatalf("IDs not sequential: %v", want)
	}
}

// TestDoneFrontSharedWithStore: a done job keeps one packed front, which
// its record and its StoredResult share. Front, Store.Get and Store.Query
// serve equal fronts, and each front they return is the caller's own:
// changing it does not change the next read.
func TestDoneFrontSharedWithStore(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()
	info, front := runToDone(t, m, smallNSGA2("ecg-ward", 7))
	if len(front.Front) == 0 {
		t.Fatal("done job has an empty front")
	}
	j, _ := m.lookup(info.ID)
	j.mu.Lock()
	kept := j.points
	j.mu.Unlock()
	m.store.mu.RLock()
	e := m.store.byVer[info.ResultVersion]
	m.store.mu.RUnlock()
	if kept == nil || e == nil || e.front != kept {
		t.Fatalf("job record and store entry v%d hold different fronts, want one packed front", info.ResultVersion)
	}
	// The reference is the front's JSON, which no read can share.
	want, err := json.Marshal(front.Front)
	if err != nil {
		t.Fatal(err)
	}
	same := func(f []FrontPoint) bool {
		b, err := json.Marshal(f)
		return err == nil && bytes.Equal(b, want)
	}
	reads := []struct {
		name string
		read func() []FrontPoint
	}{
		{"Manager.Front", func() []FrontPoint {
			f, err := m.Front(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			return f.Front
		}},
		{"Store.Get", func() []FrontPoint {
			r, ok := m.Store().Get(info.ResultVersion)
			if !ok {
				t.Fatalf("v%d not in the store", info.ResultVersion)
			}
			return r.Front
		}},
		{"Store.Query", func() []FrontPoint {
			page, _ := m.Store().Query(ResultQuery{})
			if len(page) != 1 {
				t.Fatalf("Query returned %d results, want 1", len(page))
			}
			return page[0].Front
		}},
	}
	for _, r := range reads {
		got := r.read()
		if !same(got) {
			t.Fatalf("%s serves another front than the job's", r.name)
		}
		for _, p := range got {
			for k := range p.Config {
				p.Config[k] = -1
			}
			for k := range p.Objs {
				p.Objs[k] = -1
			}
		}
		got[0] = FrontPoint{}
		if !same(r.read()) {
			t.Fatalf("changing the front %s returned changed the next read", r.name)
		}
	}
}

// liveHeap is the heap still reachable after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// packedSize is a front's packed size: 1 B per gene and 8 B per
// objective.
func packedSize(front []FrontPoint) (n int64) {
	for _, p := range front {
		n += int64(len(p.Config) + 8*len(p.Objs))
	}
	return n
}

// TestFinishedJobRetainedHeap bounds what a finished job keeps: its
// JobInfo, event history, stats window and one packed front shared with
// the store. Its checkpoint anchor, warm-start seeds, search result and
// obs writer queue must be garbage once it ends, so each finished job
// may add to the live heap at most its front's packed size (1 B per gene
// and 8 B per objective) plus 32 KiB. The jobs checkpoint, archive to
// disk, write obs streams and, for MOSA, warm-start from the store. The
// pop-256 NSGA-II jobs keep fronts of over 600 points, so a cost per
// point beyond the packed size exceeds the slack. A last phase bounds
// the server's memory: on a Manager with MaxResults 4, 32 more NSGA-II
// jobs past the first 8 may add at most 32 KiB in all, because each
// finished job drops the oldest record. The retained fronts differ in
// size from seed to seed, so the difference of their packed sizes is
// taken out.
func TestFinishedJobRetainedHeap(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers:       1,
		CheckpointDir: filepath.Join(dir, "ckpt"),
		ResultDir:     filepath.Join(dir, "results"),
		ObsDir:        filepath.Join(dir, "obs"),
	}
	m := newTestManager(t, cfg)
	defer m.Close()
	kinds := []struct {
		name string
		spec Spec
	}{
		{"mosa", Spec{Scenario: "ecg-ward", Algorithm: AlgoMOSA, Workers: 2, CheckpointEvery: 2, WarmStart: WarmStartAuto,
			MOSA: &dse.MOSAConfig{Iterations: 4000}}},
		{"nsga2", Spec{Scenario: "ecg-ward", Algorithm: AlgoNSGA2, Workers: 2, CheckpointEvery: 5,
			NSGA2: &dse.NSGA2Config{PopulationSize: 64, Generations: 20}}},
		{"nsga2-large", Spec{Scenario: "ecg-ward", Algorithm: AlgoNSGA2, Workers: 2, CheckpointEvery: 10,
			NSGA2: &dse.NSGA2Config{PopulationSize: 256, Generations: 40}}},
	}
	const jobs = 12
	seed := int64(0)
	for _, k := range kinds {
		// One job first builds what every later job shares (the compiled
		// scenario, metrics cells), so the baseline holds it.
		seed++
		k.spec.Seed = seed
		runToDone(t, m, k.spec)
		m.drainSamplers()
		before := liveHeap()
		var packed, points int64
		for range jobs {
			seed++
			k.spec.Seed = seed
			_, front := runToDone(t, m, k.spec)
			packed += packedSize(front.Front)
			points += int64(len(front.Front))
		}
		m.drainSamplers()
		perJob := (liveHeap() - before) / jobs
		over := perJob - packed/jobs
		t.Logf("%s: %d B retained per finished job, %d B above its packed front of %d points", k.name, perJob, over, points/jobs)
		if over > 32<<10 {
			t.Errorf("%s: a finished job retains %d B above its packed front, want at most 32 KiB", k.name, over)
		}
	}
	m.Close()

	cfg.MaxResults = 4
	bounded := newTestManager(t, cfg)
	defer bounded.Close()
	spec := kinds[1].spec
	// run finishes that many more jobs and returns the packed size of the
	// fronts the retained records then hold.
	run := func(jobs int) (fronts int64) {
		for range jobs {
			seed++
			spec.Seed = seed
			runToDone(t, bounded, spec)
		}
		waitRetained(t, bounded, cfg.MaxResults)
		bounded.drainSamplers()
		for _, info := range bounded.Jobs() {
			front, err := bounded.Front(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			fronts += packedSize(front.Front)
		}
		return fronts
	}
	frontsBefore := run(8)
	before := liveHeap()
	frontsAfter := run(32)
	growth := liveHeap() - before - (frontsAfter - frontsBefore)
	t.Logf("bounded: 32 jobs past the record bound add %d B beside their fronts (%d B → %d B)", growth, frontsBefore, frontsAfter)
	if growth > 32<<10 {
		t.Errorf("bounded: 32 jobs past the record bound of %d add %d B, want at most 32 KiB", cfg.MaxResults, growth)
	}
}

// waitRetired polls until m's workers have retired n jobs, which is when
// a finished job's record is compacted. m must not have evicted any.
func waitRetired(t *testing.T, m *Manager, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		retired := len(m.finished)
		m.mu.Unlock()
		if retired >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers retired %d jobs, want %d", retired, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTinyJobRetainedHeap bounds what the server keeps of each job in a
// stream of tiny explorations, the wsn-serve load the record bound
// (Config.MaxResults) exists for: pop-8 × 4 ecg-ward NSGA-II jobs at
// workers 1, seeds 1–64 in turn, on a Manager with 2 workers and no
// directories. After 100 warm-up jobs, each of 1,000 more finished jobs
// may add at most 2 KiB of live heap, its JobInfo, event history, stats
// window, packed front and store entry included.
func TestTinyJobRetainedHeap(t *testing.T) {
	const warmup, jobs, maxPerJob = 100, 1000, 2048
	m := newTestManager(t, Config{Workers: 2, MaxResults: 2 * (warmup + jobs)})
	defer m.Close()
	next := 0
	run := func(n int) {
		for range n {
			spec := Spec{Scenario: "ecg-ward", Algorithm: AlgoNSGA2, Seed: int64(next%64 + 1), Workers: 1,
				NSGA2: &dse.NSGA2Config{PopulationSize: 8, Generations: 4}}
			next++
			runToDone(t, m, spec)
		}
		waitRetired(t, m, next)
	}
	run(warmup)
	before := liveHeap()
	run(jobs)
	perJob := (liveHeap() - before) / jobs
	t.Logf("a finished tiny job retains %d B", perJob)
	if perJob > maxPerJob {
		t.Errorf("a finished tiny job retains %d B, want at most %d B", perJob, maxPerJob)
	}
}

// TestJobRecordCompaction: retiring a finished job must not change what
// its endpoints serve. Each job runs on the test goroutine through the
// worker's own runJob and retire while the manager's one worker is held
// in a blocker job, so the first reads happen when Wait returns, before
// the record is compacted, and the second after. Get, Front, JobStats at
// several n and Events at every afterSeq must read the same JSON,
// for a plain job whose stats ring wrapped, an island job and a job with
// an obs file.
func TestJobRecordCompaction(t *testing.T) {
	cases := []struct {
		name string
		obs  bool
		spec Spec
	}{
		{"plain", false, Spec{Scenario: "ecg-ward", Algorithm: AlgoNSGA2, Seed: 3,
			NSGA2: &dse.NSGA2Config{PopulationSize: 8, Generations: statsRingCap + 40}}},
		{"island", false, islandSpec(5)},
		{"obs", true, smallNSGA2("ecg-ward", 9)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Workers: 1, ObsSampleInterval: time.Nanosecond}
			if tc.obs {
				cfg.ObsDir = t.TempDir()
			}
			m := newTestManager(t, cfg)
			defer m.Close()
			defer holdWorker(t, m)()

			info, err := m.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			j := <-m.queue // the worker is busy: the job is the test's to run
			if j.info.ID != info.ID {
				t.Fatalf("dequeued %s, want %s", j.info.ID, info.ID)
			}
			m.runJob(j)
			final := waitDone(t, m, info.ID)
			if final.Status != StatusDone {
				t.Fatalf("job ended %s: %s", final.Status, final.Error)
			}
			before := endpointReads(t, m, info.ID)
			m.retire(j)
			j.mu.Lock()
			retired := j.live == nil
			j.mu.Unlock()
			if !retired {
				t.Fatal("retire left the job's live state")
			}
			after := endpointReads(t, m, info.ID)
			for k, want := range before {
				if after[k] != want {
					t.Errorf("%s changed when the job was retired:\nbefore %s\nafter  %s", k, want, after[k])
				}
			}
			st, _ := m.JobStats(info.ID, 0)
			if tc.name == "plain" && st.Samples <= statsRingCap {
				t.Fatalf("%d samples did not wrap the %d-row ring", st.Samples, statsRingCap)
			}
		})
	}
}

// holdWorker occupies m's one worker with a job held at its first search
// boundary, and returns the func that lets it go and cancels it. m must
// be fresh, so the blocker is its job j1.
func holdWorker(t *testing.T, m *Manager) (release func()) {
	t.Helper()
	entered, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	faultinject.SetBoundaryHook(func(jobID string, _, _ int) {
		if jobID == "j1" {
			once.Do(func() { close(entered) })
			<-unblock
		}
	})
	info, err := m.Submit(Spec{Scenario: "ecg-ward", Algorithm: AlgoNSGA2,
		NSGA2: &dse.NSGA2Config{PopulationSize: 8, Generations: 1000}})
	if err != nil || info.ID != "j1" {
		faultinject.Reset()
		t.Fatalf("blocker job %q: %v", info.ID, err)
	}
	<-entered
	return func() {
		faultinject.Reset()
		close(unblock)
		_ = m.Cancel(info.ID)
	}
}

// endpointReads returns the JSON of everything a finished job's
// endpoints serve, keyed by endpoint: Get, Front, JobStats at n from 0 to
// past the ring, and Events at every afterSeq from 0 to the last sequence
// number, which must return without waiting for a live event.
func endpointReads(t *testing.T, m *Manager, id string) map[string]string {
	t.Helper()
	out := map[string]string{}
	put := func(key string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[key] = string(b)
	}
	info, ok := m.Get(id)
	if !ok {
		t.Fatalf("Get(%s): not found", id)
	}
	put("Get", info)
	front, err := m.Front(id)
	if err != nil {
		t.Fatal(err)
	}
	put("Front", front)
	for _, n := range []int{0, 1, 2, statsRingCap - 1, statsRingCap, statsRingCap + 1} {
		st, err := m.JobStats(id, n)
		if err != nil {
			t.Fatal(err)
		}
		put(fmt.Sprintf("JobStats n=%d", n), st)
	}
	// A cancelled context: Events returns its error only if it waits.
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	last := -1
	for after := 0; after <= last || last < 0; after++ {
		var replay []Event
		err := m.Events(ended, id, after, func(e Event) bool {
			replay = append(replay, e)
			return true
		})
		if err != nil {
			t.Fatalf("Events(%d): a finished job's stream waited for a live event: %v", after, err)
		}
		if after == 0 {
			if len(replay) == 0 {
				t.Fatal("finished job replays no events")
			}
			last = replay[len(replay)-1].Seq
		}
		put(fmt.Sprintf("Events after=%d", after), replay)
	}
	return out
}
