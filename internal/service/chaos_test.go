package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsndse/internal/dse"
	"wsndse/internal/service/faultinject"
)

// The chaos suite arms the global faultinject hooks, so none of these
// tests may run in parallel with each other; each arms after its
// reference runs and defers faultinject.Reset.

// fastRetry makes retries instant-ish so chaos tests don't sleep.
func fastRetry(cfg Config) Config {
	cfg.RetryBaseDelay = time.Millisecond
	cfg.RetryMaxDelay = 5 * time.Millisecond
	return cfg
}

// chaosSpecs are the two checkpointing algorithm families the
// panic-retry bit-identity guarantee is proven for.
func chaosSpecs() map[string]Spec {
	return map[string]Spec{
		"nsga2": {
			Scenario:  "ecg-ward",
			Algorithm: AlgoNSGA2,
			Seed:      11,
			Workers:   2,
			NSGA2:     &dse.NSGA2Config{PopulationSize: 8, Generations: 6},
		},
		"mosa": {
			Scenario:  "ecg-ward",
			Algorithm: AlgoMOSA,
			Seed:      11,
			Workers:   2,
			MOSA:      &dse.MOSAConfig{Iterations: 4000, Restarts: 4}, // 4 segments of 256 iters/chain
		},
	}
}

// TestChaosPanicRetryBitIdentical is the headline recovery guarantee: a
// job that panics mid-search and auto-retries from its checkpoint
// produces a front byte-identical to an uninterrupted run of the same
// spec, for both checkpointing algorithm families.
func TestChaosPanicRetryBitIdentical(t *testing.T) {
	for name, spec := range chaosSpecs() {
		t.Run(name, func(t *testing.T) {
			m := newTestManager(t, fastRetry(Config{Workers: 1}))
			defer m.Close()

			ref, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if info := waitDone(t, m, ref.ID); info.Status != StatusDone {
				t.Fatalf("reference run: %s (%s)", info.Status, info.Error)
			}
			want, err := m.Front(ref.ID)
			if err != nil {
				t.Fatal(err)
			}

			defer faultinject.Reset()
			faultinject.PanicOnceAtStep(3, 1)
			faulted := spec
			faulted.MaxRetries = 2
			faulted.CheckpointEvery = 1
			victim, err := m.Submit(faulted)
			if err != nil {
				t.Fatal(err)
			}
			info := waitDone(t, m, victim.ID)
			if info.Status != StatusDone {
				t.Fatalf("faulted run: %s (%s)", info.Status, info.Error)
			}
			if info.Attempts != 2 {
				t.Fatalf("attempts = %d, want 2 (one panic, one successful retry)", info.Attempts)
			}
			if info.Error != "" {
				t.Fatalf("done job still carries error %q", info.Error)
			}
			// The panic fired at step 3, so the retry resumed from the
			// checkpoint at step 2.
			if info.ResumedFromStep != 2 {
				t.Fatalf("resumed_from_step = %d, want 2", info.ResumedFromStep)
			}
			got, err := m.Front(victim.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Front, got.Front) {
				t.Fatalf("retried front differs from uninterrupted run:\nwant %+v\ngot  %+v", want.Front, got.Front)
			}
		})
	}
}

// TestChaosRetryWithoutCheckpoint: a job that never checkpointed retries
// from scratch — and, the search being deterministic, still lands on the
// uninterrupted run's exact front.
func TestChaosRetryWithoutCheckpoint(t *testing.T) {
	spec := chaosSpecs()["nsga2"]
	m := newTestManager(t, fastRetry(Config{Workers: 1}))
	defer m.Close()

	ref, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, ref.ID)
	want, err := m.Front(ref.ID)
	if err != nil {
		t.Fatal(err)
	}

	defer faultinject.Reset()
	faultinject.PanicOnceAtStep(3, 1)
	faulted := spec
	faulted.MaxRetries = 1 // no CheckpointEvery: retry restarts from step 0
	victim, err := m.Submit(faulted)
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, m, victim.ID)
	if info.Status != StatusDone || info.Attempts != 2 {
		t.Fatalf("status %s attempts %d (%s), want done after 2 attempts", info.Status, info.Attempts, info.Error)
	}
	got, err := m.Front(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Front, got.Front) {
		t.Fatalf("from-scratch retry front differs:\nwant %+v\ngot  %+v", want.Front, got.Front)
	}
}

// TestChaosRetriesExhausted: a deterministic panic burns through every
// retry and the job fails with the panic and its stack preserved, the
// attempt count accounting for the initial try plus MaxRetries retries.
func TestChaosRetriesExhausted(t *testing.T) {
	defer faultinject.Reset()
	faultinject.PanicOnceAtStep(2, 100) // effectively always

	var logLines []string
	var logMu sync.Mutex
	cfg := fastRetry(Config{Workers: 1})
	cfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		logLines = append(logLines, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	m := newTestManager(t, cfg)
	defer m.Close()

	spec := chaosSpecs()["nsga2"]
	spec.MaxRetries = 2
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, info.ID)
	if final.Status != StatusFailed {
		t.Fatalf("status %s, want failed", final.Status)
	}
	if final.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (initial + 2 retries)", final.Attempts)
	}
	if !strings.Contains(final.Error, "injected panic") || !strings.Contains(final.Error, "goroutine") {
		t.Fatalf("error should carry the panic value and stack, got:\n%s", final.Error)
	}
	logMu.Lock()
	defer logMu.Unlock()
	retryLogs := 0
	for _, l := range logLines {
		if strings.Contains(l, "retrying in") {
			retryLogs++
		}
	}
	if retryLogs != 2 {
		t.Fatalf("%d retry log lines, want 2: %q", retryLogs, logLines)
	}
}

// TestChaosRetryEventsCarryAttempt: the event stream narrates the retry
// loop — running(1) → queued(retry, with error) → running(2) → done —
// with each status event stamped with its attempt.
func TestChaosRetryEventsCarryAttempt(t *testing.T) {
	defer faultinject.Reset()
	faultinject.PanicOnceAtStep(2, 1)

	m := newTestManager(t, fastRetry(Config{Workers: 1}))
	defer m.Close()
	spec := chaosSpecs()["nsga2"]
	spec.MaxRetries = 1
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var statuses []Event
	err = m.Events(context.Background(), info.ID, 0, func(e Event) bool {
		if e.Type == "status" {
			statuses = append(statuses, e)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	for _, e := range statuses {
		trace = append(trace, fmt.Sprintf("%s@%d", e.Status, e.Attempt))
	}
	want := []string{"queued@0", "running@1", "queued@1", "running@2", "done@2"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("status trace %v, want %v", trace, want)
	}
	// The retry's queued event must carry the failure that caused it.
	if statuses[2].Error == "" || !strings.Contains(statuses[2].Error, "injected panic") {
		t.Fatalf("retry transition lost its error: %+v", statuses[2])
	}
}

// TestChaosCancelDuringRetryWait: a job cancelled while it waits out a
// retry's backoff ends at once as cancelled, and its worker publishes
// that status after closing the job's telemetry, so the obs file then
// holds every sample the window counted.
func TestChaosCancelDuringRetryWait(t *testing.T) {
	defer faultinject.Reset()
	faultinject.PanicOnceAtStep(2, 1)

	dir := t.TempDir()
	m := newTestManager(t, Config{Workers: 1, ObsDir: dir, ObsSampleInterval: time.Nanosecond,
		RetryBaseDelay: time.Hour, RetryMaxDelay: time.Hour})
	defer m.Close()
	spec := chaosSpecs()["nsga2"]
	spec.MaxRetries = 1
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var trace []string
	err = m.Events(ctx, info.ID, 0, func(e Event) bool {
		if e.Type != "status" {
			return true
		}
		trace = append(trace, fmt.Sprintf("%s@%d", e.Status, e.Attempt))
		if e.Status == StatusQueued && e.Attempt == 1 {
			if err := m.Cancel(info.ID); err != nil {
				t.Error(err)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"queued@0", "running@1", "queued@1", "cancelled@1"}; !reflect.DeepEqual(trace, want) {
		t.Fatalf("status trace %v, want %v", trace, want)
	}
	st, err := m.JobStats(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if samples := readObsFile(t, filepath.Join(dir, info.ID+".obs")); st.Samples == 0 || int64(len(samples)) != st.Samples {
		t.Fatalf("obs file holds %d samples once the job is cancelled, its window counted %d", len(samples), st.Samples)
	}
}

// TestChaosDeadline: a job whose deadline elapses mid-search stops at
// the next boundary as timed_out, keeping its partial front.
func TestChaosDeadline(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()
	spec := Spec{
		Scenario:        "ecg-ward",
		Algorithm:       AlgoNSGA2,
		Seed:            5,
		Workers:         2,
		DeadlineSeconds: 0.15,
		NSGA2:           &dse.NSGA2Config{PopulationSize: 16, Generations: 1_000_000},
	}
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, info.ID)
	if final.Status != StatusTimedOut {
		t.Fatalf("status %s (%s), want timed_out", final.Status, final.Error)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Fatalf("error %q should mention the deadline", final.Error)
	}
	front, err := m.Front(info.ID)
	if err != nil {
		t.Fatalf("timed-out job should keep its partial front: %v", err)
	}
	if len(front.Front) == 0 || front.Status != StatusTimedOut {
		t.Fatalf("partial front %+v", front)
	}
}

// TestChaosDeadlineSpansRetries: the deadline bounds the whole job, not
// each attempt — a job stuck in a panic/retry loop times out once the
// clock runs down, rather than failing only after all retries burn.
func TestChaosDeadlineSpansRetries(t *testing.T) {
	defer faultinject.Reset()
	faultinject.PanicOnceAtStep(1, 10_000)

	cfg := Config{Workers: 1, RetryBaseDelay: 50 * time.Millisecond, RetryMaxDelay: 50 * time.Millisecond}
	m := newTestManager(t, cfg)
	defer m.Close()
	spec := chaosSpecs()["nsga2"]
	spec.MaxRetries = maxJobRetries
	spec.DeadlineSeconds = 0.3
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, info.ID)
	if final.Status != StatusTimedOut {
		t.Fatalf("status %s (%s), want timed_out", final.Status, final.Error)
	}
}

// TestChaosCheckpointWriteFailure: a dying disk fails every durable
// checkpoint write; the job logs, keeps its in-memory anchor, and a
// panic mid-run still retries from that anchor to the undisturbed front.
func TestChaosCheckpointWriteFailure(t *testing.T) {
	var logged atomic.Int32
	cfg := fastRetry(Config{Workers: 1, CheckpointDir: t.TempDir()})
	cfg.Logf = func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "checkpoint write") {
			logged.Add(1)
		}
	}
	m := newTestManager(t, cfg)
	defer m.Close()
	spec := chaosSpecs()["nsga2"]
	_, want := runToDone(t, m, spec)

	defer faultinject.Reset()
	faultinject.SetCheckpointWriteHook(func(path string, data []byte) ([]byte, error) {
		return nil, errors.New("disk full (injected)")
	})
	faultinject.PanicOnceAtStep(3, 1)
	spec.CheckpointEvery = 1
	spec.MaxRetries = 1
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, info.ID)
	if final.Status != StatusDone {
		t.Fatalf("status %s (%s), want done despite failing checkpoint writes", final.Status, final.Error)
	}
	if logged.Load() == 0 {
		t.Fatal("failing checkpoint writes left no log trace")
	}
	// The panic fired at step 3; the retry resumed from the in-memory
	// anchor at step 2, which no failed write could reach.
	if final.ResumedFromStep != 2 {
		t.Fatalf("resumed_from_step = %d, want 2", final.ResumedFromStep)
	}
	got, err := m.Front(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Front, got.Front) {
		t.Fatalf("retried front differs from uninterrupted run:\nwant %+v\ngot  %+v", want.Front, got.Front)
	}
	if _, err := LoadCheckpoint(cfg.CheckpointDir, info.ID, 1); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("no durable snapshot should exist, got err=%v", err)
	}
}

// TestChaosTornCheckpointFallback: a checkpoint file torn by a mid-write
// kill fails its checksum on load, and recovery falls back to the
// previous checkpoint — resuming from which still reproduces the
// uninterrupted run's front exactly.
func TestChaosTornCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Workers: 1, CheckpointDir: dir})
	defer m.Close()

	spec := chaosSpecs()["nsga2"]
	spec.CheckpointEvery = 1
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, info.ID)
	if final.Status != StatusDone {
		t.Fatalf("status %s (%s)", final.Status, final.Error)
	}
	want, err := m.Front(info.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Both rotation slots exist and the latest outranks its predecessor.
	path, prevPath := slotPaths(dir, info.ID, 1, 0)
	latest, err := LoadCheckpoint(dir, info.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	prevData, err := os.ReadFile(prevPath)
	if err != nil {
		t.Fatalf("rotation should have kept the previous checkpoint: %v", err)
	}
	prev, err := dse.DecodeSnapshotFile(prevData)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Step != latest[0].Step-1 {
		t.Fatalf("prev at step %d, latest at %d — rotation broken", prev.Step, latest[0].Step)
	}

	// Kill-mid-write simulation: truncate the latest file to half.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dse.DecodeSnapshotFile(data[:len(data)/2]); !errors.Is(err, dse.ErrCorruptSnapshot) {
		t.Fatalf("torn bytes should decode as ErrCorruptSnapshot, got %v", err)
	}

	recovered, err := LoadCheckpoint(dir, info.ID, 1)
	if err != nil {
		t.Fatalf("LoadCheckpoint should fall back past the torn file: %v", err)
	}
	if recovered[0].Step != prev.Step {
		t.Fatalf("recovered step %d, want the previous checkpoint's %d", recovered[0].Step, prev.Step)
	}

	// resume_job reads past the torn file to the fallback and still lands
	// on the identical front.
	resumeSpec := spec
	resumeSpec.ResumeJob = info.ID
	resumed, err := m.Submit(resumeSpec)
	if err != nil {
		t.Fatal(err)
	}
	if ri := waitDone(t, m, resumed.ID); ri.Status != StatusDone || ri.ResumedFromStep != prev.Step {
		t.Fatalf("resumed job %s from step %d (%s), want done from the fallback's step %d",
			ri.Status, ri.ResumedFromStep, ri.Error, prev.Step)
	}
	got, err := m.Front(resumed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Front, got.Front) {
		t.Fatalf("front resumed from fallback checkpoint differs:\nwant %+v\ngot  %+v", want.Front, got.Front)
	}

	// With both slots gone, loading reports not-exist (distinct from corrupt).
	os.Remove(path)
	os.Remove(prevPath)
	if _, err := LoadCheckpoint(dir, info.ID, 1); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want os.ErrNotExist with no files, got %v", err)
	}
}

// TestChaosStoreWriteFailure: the result store's disk fails at archive
// time; the job still completes (front served from memory), with
// ResultVersion left unset as the trace that archiving was lost.
func TestChaosStoreWriteFailure(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, ResultDir: t.TempDir()})
	defer m.Close()

	defer faultinject.Reset()
	faultinject.SetStoreWriteHook(func(path string) error {
		return errors.New("disk full (injected)")
	})

	info, err := m.Submit(chaosSpecs()["nsga2"])
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, info.ID)
	if final.Status != StatusDone {
		t.Fatalf("status %s (%s), want done despite failing archive", final.Status, final.Error)
	}
	if final.ResultVersion != 0 {
		t.Fatalf("ResultVersion %d, want 0 after a failed archive", final.ResultVersion)
	}
	front, err := m.Front(info.ID)
	if err != nil || len(front.Front) == 0 {
		t.Fatalf("front should be served from memory: %v (%d points)", err, len(front.Front))
	}
}

// TestChaosSSEReconnect drives the client's SSE stream through a proxy
// that kills every connection after a byte allowance. The client must
// reconnect with Last-Event-ID, observe every sequence number at most
// once and strictly increasing, and still see the job to completion.
func TestChaosSSEReconnect(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	proxy, err := faultinject.NewFlakyProxy(strings.TrimPrefix(srv.URL, "http://"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c := NewClient("http://" + proxy.Addr())
	c.MaxRetries = 10
	c.RetryBaseDelay = time.Millisecond
	c.RetryMaxDelay = 10 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec := Spec{
		Scenario:  "ecg-ward",
		Algorithm: AlgoNSGA2,
		Seed:      9,
		Workers:   2,
		NSGA2:     &dse.NSGA2Config{PopulationSize: 8, Generations: 3000},
	}
	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	lastSeq := 0
	events := 0
	final, err := c.Wait(ctx, info.ID, func(e Event) {
		if e.Seq <= lastSeq {
			t.Errorf("event seq %d after %d: duplicates/reordering leaked through reconnect", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		events++
	})
	if err != nil {
		t.Fatalf("Wait through flaky proxy: %v", err)
	}
	if final.Status != StatusDone {
		t.Fatalf("status %s (%s)", final.Status, final.Error)
	}
	if proxy.Kills() == 0 {
		t.Fatal("proxy never killed a connection — the test proved nothing; lower the allowance")
	}
	if events == 0 {
		t.Fatal("no events observed")
	}
}

// TestChaosClientIdempotentRetry: GETs ride out a server's bad patch
// (503s, the restart window) with backoff; POSTs are never replayed.
func TestChaosClientIdempotentRetry(t *testing.T) {
	var gets, posts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
			writeError(w, http.StatusServiceUnavailable, CodeUnavailable, errors.New("restarting"))
			return
		}
		if gets.Add(1) <= 2 {
			writeError(w, http.StatusServiceUnavailable, CodeUnavailable, errors.New("restarting"))
			return
		}
		writeJSON(w, http.StatusOK, JobInfo{ID: "j1", Status: StatusDone})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.RetryBaseDelay = time.Millisecond
	c.RetryMaxDelay = 2 * time.Millisecond
	ctx := context.Background()

	info, err := c.Job(ctx, "j1")
	if err != nil {
		t.Fatalf("GET should survive two 503s: %v", err)
	}
	if info.ID != "j1" || gets.Load() != 3 {
		t.Fatalf("info %+v after %d GETs", info, gets.Load())
	}

	if _, err := c.Submit(ctx, Spec{}); err == nil {
		t.Fatal("Submit against a 503 server should fail")
	}
	if posts.Load() != 1 {
		t.Fatalf("POST was attempted %d times; must never be retried", posts.Load())
	}

	// Definitive errors short-circuit: a 404 is final on the first try.
	gets.Store(100)
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		writeError(w, http.StatusNotFound, CodeNotFound, ErrNotFound)
	}))
	defer srv2.Close()
	c2 := NewClient(srv2.URL)
	c2.RetryBaseDelay = time.Millisecond
	before := gets.Load()
	var apiErr *APIError
	if _, err := c2.Job(ctx, "nope"); !errors.As(err, &apiErr) || apiErr.Code != CodeNotFound {
		t.Fatalf("want not_found APIError, got %v", err)
	}
	if gets.Load() != before+1 {
		t.Fatalf("404 was retried (%d requests)", gets.Load()-before)
	}
}

// TestChaosServerRestartMidWait is the in-process restart drill: the
// server process dies mid-job (listener closed), a new server comes up on
// the same address serving a resumed manager, and a client Wait that
// started before the restart finishes after it.
func TestChaosServerRestartMidWait(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, Config{Workers: 1, CheckpointDir: dir})

	// Plain Server (not httptest) so the address can be re-bound.
	ln := newLocalListener(t)
	addr := ln.Addr().String()
	srv1 := &http.Server{Handler: NewHandler(m1)}
	go srv1.Serve(ln)

	c := NewClient("http://" + addr)
	c.MaxRetries = 50
	c.RetryBaseDelay = 5 * time.Millisecond
	c.RetryMaxDelay = 20 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec := Spec{
		Scenario:        "ecg-ward",
		Algorithm:       AlgoNSGA2,
		Seed:            13,
		Workers:         2,
		CheckpointEvery: 1,
		NSGA2:           &dse.NSGA2Config{PopulationSize: 8, Generations: 4000},
	}
	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Let the job make progress, then kill server and manager abruptly.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ji, err := c.Job(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ji.Progress != nil && ji.Progress.Step >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	waitErr := make(chan error, 1)
	var finalInfo JobInfo
	go func() {
		fi, err := c.Wait(ctx, info.ID, nil)
		finalInfo = fi
		waitErr <- err
	}()

	srv1.Close() // hard close: in-flight SSE streams die mid-event
	m1.Close()

	// "Restart": a new manager on the same address resumes the dead one's
	// job from its durable checkpoint. A resume_job naming a job the new
	// manager does not hold continues under that ID, which is what lets
	// the waiting client find it again.
	m2 := newTestManager(t, Config{Workers: 1, CheckpointDir: dir})
	defer m2.Close()
	resumeSpec := spec
	resumeSpec.ResumeJob = info.ID
	info2, err := m2.Submit(resumeSpec)
	if err != nil {
		t.Fatal(err)
	}
	if info2.ID != info.ID {
		t.Fatalf("restarted manager assigned %s, want %s", info2.ID, info.ID)
	}
	ln2 := newLocalListenerAt(t, addr)
	srv2 := &http.Server{Handler: NewHandler(m2)}
	go srv2.Serve(ln2)
	defer srv2.Close()

	if err := <-waitErr; err != nil {
		t.Fatalf("Wait across the restart: %v", err)
	}
	if finalInfo.Status != StatusDone || finalInfo.ResumedFromStep < 1 {
		t.Fatalf("resumed job: %s from step %d (%s)", finalInfo.Status, finalInfo.ResumedFromStep, finalInfo.Error)
	}
}

func newLocalListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// newLocalListenerAt rebinds addr, retrying briefly: the previous
// listener was closed a moment ago and the kernel may not have released
// the port yet.
func newLocalListenerAt(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHubSubscribeFrom pins the server half of Last-Event-ID resume: a
// follower reads only the events after the given sequence number, and
// one past the latest event still receives the events that follow.
func TestHubSubscribeFrom(t *testing.T) {
	var h hub
	for i := 0; i < 3; i++ {
		h.publish(Event{Type: "status", Status: StatusQueued})
	}
	h.publish(Event{Type: "progress", Progress: &ProgressInfo{Step: 9}})

	replay := history(&h, 2)
	for _, e := range replay {
		if e.Seq <= 2 {
			t.Fatalf("follow from 2 read seq %d", e.Seq)
		}
	}
	if len(replay) != 2 { // status seq 3 + progress seq 4
		t.Fatalf("replay %+v, want 2 events", replay)
	}
	if all := history(&h, 0); len(all) != 4 {
		t.Fatalf("full replay has %d events, want 4", len(all))
	}

	// A Last-Event-ID from the future counts as the latest event.
	var live hub
	live.publish(Event{Type: "status", Status: StatusQueued})
	live.publish(Event{Type: "status", Status: StatusRunning})
	got := make(chan []Event)
	ctx := newReaderCtx()
	go func() {
		var seen []Event
		if err := live.follow(ctx, 1000, func(e Event) bool {
			seen = append(seen, e)
			return true
		}); err != nil {
			t.Error(err)
		}
		got <- seen
	}()
	ctx.awaitReader()
	live.publish(Event{Type: "progress", Progress: &ProgressInfo{Step: 1}})
	live.publish(Event{Type: "status", Status: StatusDone})
	live.close()
	seen := <-got
	if len(seen) != 2 || seen[0].Seq != 3 || seen[1].Seq != 4 || seen[1].Status != StatusDone {
		t.Fatalf("follower from seq 1000 read %+v, want seq 3 and the done status at seq 4", seen)
	}
}

// TestHTTPRobustnessSurface covers the new hardening seams: request-body
// cap (413 body_too_large), Last-Event-ID validation, and SSE resume over
// HTTP.
func TestHTTPRobustnessSurface(t *testing.T) {
	c, m := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Oversized body → 413 with the structured envelope.
	huge := strings.NewReader(`{"scenario":"` + strings.Repeat("x", MaxBodyBytes+1) + `"}`)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/jobs", huge)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
	if ae := decodeAPIError(resp.StatusCode, resp.Body); ae.Code != CodeBodyTooLarge {
		t.Fatalf("code %q, want %q", ae.Code, CodeBodyTooLarge)
	}

	info, err := c.Submit(ctx, smallNSGA2("ecg-ward", 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, info.ID); err != nil {
		t.Fatal(err)
	}

	// A malformed Last-Event-ID is invalid_argument, not a silent full replay.
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+info.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "bogus")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus Last-Event-ID: HTTP %d, want 400", resp2.StatusCode)
	}

	// Resuming after the last seq of a finished job yields an empty stream.
	var lastSeq int
	if err := c.Events(ctx, info.ID, func(e Event) bool { lastSeq = e.Seq; return true }); err != nil {
		t.Fatal(err)
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+info.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprint(lastSeq))
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	body := make([]byte, 1024)
	n, _ := resp3.Body.Read(body)
	if got := strings.TrimSpace(string(body[:n])); got != "" {
		t.Fatalf("resume past the end replayed: %q", got)
	}
}

// TestChaosBoundaryHookSeesEveryJob: plain jobs and island rounds reach
// the one faultinject boundary point. A plain job reports island 0, and
// each island of an island job reports its own steps; either way every
// island passes steps 1…N once, in order, and a plain job's progress
// ends at N of N. The exhaustive job sweeps raw-stream, fewer points than
// one batch: its one boundary is its last.
func TestChaosBoundaryHookSeesEveryJob(t *testing.T) {
	type call struct{ island, step int }
	var (
		mu    sync.Mutex
		calls []call
	)
	defer faultinject.Reset()
	faultinject.SetBoundaryHook(func(_ string, island, step int) {
		mu.Lock()
		calls = append(calls, call{island, step})
		mu.Unlock()
	})
	cases := map[string]struct {
		spec  Spec
		steps int
	}{
		"plain":      {smallNSGA2("ecg-ward", 7), 6},
		"islands":    {islandSpec(7), islandSpec(7).NSGA2.Generations},
		"exhaustive": {Spec{Scenario: "raw-stream", Algorithm: AlgoExhaustive, Workers: 2}, 1},
	}
	for name, tc := range cases {
		spec := tc.spec
		t.Run(name, func(t *testing.T) {
			mu.Lock()
			calls = nil
			mu.Unlock()
			m := newTestManager(t, Config{Workers: 1})
			defer m.Close()
			info, _ := runToDone(t, m, spec)
			if p := info.Progress; spec.Islands < 2 && (p == nil || p.Step != tc.steps || p.TotalSteps != tc.steps) {
				t.Errorf("progress %+v, want step %d of %d", p, tc.steps, tc.steps)
			}

			mu.Lock()
			defer mu.Unlock()
			islands := max(spec.Islands, 1)
			steps := make([][]int, islands)
			for _, c := range calls {
				if c.island < 0 || c.island >= islands {
					t.Fatalf("boundary call %+v of a %s job", c, name)
				}
				steps[c.island] = append(steps[c.island], c.step)
			}
			want := make([]int, tc.steps)
			for s := range want {
				want[s] = s + 1
			}
			for i, got := range steps {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("island %d passed steps %v, want %v", i, got, want)
				}
			}
		})
	}
}
