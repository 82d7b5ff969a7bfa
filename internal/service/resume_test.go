package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"wsndse/internal/dse"
)

// corruptBothSlots overwrites a job's checkpoint files — latest and
// predecessor — with bytes that fail the snapshot checksum, modelling a
// disk that scribbled over both rotation slots.
func corruptBothSlots(t *testing.T, dir, id string) {
	t.Helper()
	latest, prev := slotPaths(dir, id, 1, 0)
	for _, path := range []string{latest, prev} {
		if err := os.WriteFile(path, []byte("{ not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadSnapshotBothSlotsCorrupt closes the recovery matrix: one
// corrupt slot falls back to the other (covered elsewhere), but when
// BOTH slots fail their checksum the loader must say so — wrapping
// dse.ErrCorruptSnapshot, not os.ErrNotExist and not a zero-value
// resume.
func TestLoadSnapshotBothSlotsCorrupt(t *testing.T) {
	dir := t.TempDir()
	corruptBothSlots(t, dir, "j1")
	ckpt, err := LoadCheckpoint(dir, "j1", 1)
	if ckpt != nil {
		t.Fatalf("corrupt slots yielded a checkpoint: %+v", ckpt)
	}
	if !errors.Is(err, dse.ErrCorruptSnapshot) {
		t.Fatalf("err = %v, want wrap of dse.ErrCorruptSnapshot", err)
	}
	if errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt files misreported as missing: %v", err)
	}
}

// TestResumeJobBitIdenticalSingleRun: a finished single-search job
// leaves its last durable checkpoint behind; a second manager on the
// same directory replays the tail via resume_job and lands on the same
// front.
func TestResumeJobBitIdenticalSingleRun(t *testing.T) {
	dir := t.TempDir()
	spec := smallNSGA2("ecg-ward", 7)
	spec.NSGA2 = &dse.NSGA2Config{PopulationSize: 8, Generations: 7}
	spec.CheckpointEvery = 2 // last checkpoint lands at generation 6

	m1 := newTestManager(t, Config{Workers: 1, CheckpointDir: dir})
	info, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if waitDone(t, m1, info.ID).Status != StatusDone {
		t.Fatal("golden run did not finish")
	}
	golden, err := m1.Front(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2 := newTestManager(t, Config{Workers: 1, CheckpointDir: dir})
	defer m2.Close()
	spec.ResumeJob = info.ID
	resumed, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m2, resumed.ID)
	if final.Status != StatusDone {
		t.Fatalf("resumed job %s: %s", final.Status, final.Error)
	}
	if final.ResumedFromStep != 6 {
		t.Errorf("resumed from step %d, want 6", final.ResumedFromStep)
	}
	front, err := m2.Front(resumed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(golden.Front, front.Front) {
		t.Fatalf("resume_job front differs: %d points vs %d", len(front.Front), len(golden.Front))
	}
}

// TestResumeJobAlgorithmMismatch: resuming a checkpoint under a spec
// that asks for a different algorithm must fail the job loudly instead
// of silently starting a fresh search — plain and island jobs alike.
func TestResumeJobAlgorithmMismatch(t *testing.T) {
	plain := smallNSGA2("ecg-ward", 7)
	plain.CheckpointEvery = 2
	for name, spec := range map[string]Spec{"plain": plain, "island": islandSpec(7)} {
		t.Run(name, func(t *testing.T) {
			m := newTestManager(t, Config{Workers: 1, CheckpointDir: t.TempDir()})
			defer m.Close()
			info, _ := runToDone(t, m, spec)

			wrong := spec
			wrong.Algorithm, wrong.NSGA2, wrong.MOSA = AlgoMOSA, nil, &dse.MOSAConfig{Iterations: 50}
			wrong.CheckpointEvery = 0
			wrong.ResumeJob = info.ID
			got, err := m.Submit(wrong)
			if err != nil {
				t.Fatal(err)
			}
			final := waitDone(t, m, got.ID)
			if final.Status != StatusFailed {
				t.Fatalf("mismatched resume ended %s, want failed", final.Status)
			}
			if !strings.Contains(final.Error, "checkpoint is a nsga2 run") {
				t.Errorf("error %q does not name the algorithm mismatch", final.Error)
			}
		})
	}
}

// TestResumeJobCorruptCheckpointFailsJob is the end-to-end face of the
// both-slots-corrupt case: the job fails with a corruption diagnosis
// rather than restarting the search from scratch under a resume label.
func TestResumeJobCorruptCheckpointFailsJob(t *testing.T) {
	dir := t.TempDir()
	corruptBothSlots(t, dir, "j41")

	m := newTestManager(t, Config{Workers: 1, CheckpointDir: dir})
	defer m.Close()
	spec := smallNSGA2("ecg-ward", 7)
	spec.ResumeJob = "j41"
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, info.ID)
	if final.Status != StatusFailed {
		t.Fatalf("resume from corrupt checkpoint ended %s, want failed", final.Status)
	}
	if !strings.Contains(final.Error, "corrupt") {
		t.Errorf("error %q does not mention corruption", final.Error)
	}
}

// TestResumeJobMissingCheckpointFailsJob: a resume_job naming a job
// that never checkpointed fails with a not-found diagnosis.
func TestResumeJobMissingCheckpointFailsJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, CheckpointDir: t.TempDir()})
	defer m.Close()
	spec := smallNSGA2("ecg-ward", 7)
	spec.ResumeJob = "j99"
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, info.ID)
	if final.Status != StatusFailed {
		t.Fatalf("resume from missing checkpoint ended %s, want failed", final.Status)
	}
	if !strings.Contains(final.Error, "no snapshot") {
		t.Errorf("error %q does not say the snapshot is missing", final.Error)
	}
}

// TestResumeJobRejectsForeignIDs: resume_job is joined into checkpoint
// file paths, so Submit accepts only the server's own ID form. A valid
// checkpoint planted one directory above the checkpoint directory must
// stay out of reach.
func TestResumeJobRejectsForeignIDs(t *testing.T) {
	root := t.TempDir()
	spec := smallNSGA2("ecg-ward", 7)
	spec.CheckpointEvery = 2
	planter := newTestManager(t, Config{Workers: 1, CheckpointDir: filepath.Join(root, "elsewhere")})
	planted, err := planter.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, planter, planted.ID)
	planter.Close()

	m := newTestManager(t, Config{Workers: 1, CheckpointDir: filepath.Join(root, "ckpt")})
	defer m.Close()
	for _, id := range []string{
		"../elsewhere/" + planted.ID, "j1/../j2", "/tmp/j1", "j0", "j01", "j-1", "j+1", "J1", "j", "j1.island0", "dead-job",
		"j9223372036854775807",
	} {
		s := spec
		s.ResumeJob = id
		if info, err := m.Submit(s); err == nil {
			t.Errorf("resume_job %q accepted as job %s", id, info.ID)
		}
	}
	if jobs := m.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submissions left %d job records", len(jobs))
	}
}

// TestRestartKeepsJobIDsDistinct replays two managers taking turns on
// one checkpoint and obs directory. The restarted manager's fresh job
// must not reuse the dead job's ID — that overwrote the dead job's
// checkpoint and buried the fresh job's telemetry behind a second obs
// magic — and resume_job on the dead job must continue it under its own
// ID, from its own checkpoint, as one obs stream.
func TestRestartKeepsJobIDsDistinct(t *testing.T) {
	cfg := Config{Workers: 1, CheckpointDir: t.TempDir(), ObsDir: t.TempDir(), ObsSampleInterval: time.Nanosecond}
	spec := smallNSGA2("ecg-ward", 7)
	spec.NSGA2 = &dse.NSGA2Config{PopulationSize: 8, Generations: 7}
	spec.CheckpointEvery = 2 // last checkpoint lands at generation 6

	m1 := newTestManager(t, cfg)
	dead, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, m1, dead.ID); info.Status != StatusDone {
		t.Fatalf("first run ended %s: %s", info.Status, info.Error)
	}
	golden, err := m1.Front(dead.ID)
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()
	ckptPath, _ := slotPaths(cfg.CheckpointDir, dead.ID, 1, 0)
	ckpt, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	obsPath := filepath.Join(cfg.ObsDir, dead.ID+".obs")
	before := len(readObsFile(t, obsPath))

	m2 := newTestManager(t, cfg)
	defer m2.Close()
	other := spec
	other.Seed = 99
	fresh, err := m2.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == dead.ID {
		t.Fatalf("restarted manager reissued job ID %s", fresh.ID)
	}
	waitDone(t, m2, fresh.ID)
	if after, err := os.ReadFile(ckptPath); err != nil || !bytes.Equal(after, ckpt) {
		t.Fatalf("a fresh job rewrote %s's checkpoint (err %v)", dead.ID, err)
	}

	resume := spec
	resume.ResumeJob = dead.ID
	cont, err := m2.Submit(resume)
	if err != nil {
		t.Fatal(err)
	}
	if cont.ID != dead.ID {
		t.Fatalf("resume_job %s continued as %s", dead.ID, cont.ID)
	}
	final := waitDone(t, m2, cont.ID)
	if final.Status != StatusDone || final.ResumedFromStep != 6 {
		t.Fatalf("continued job %s from step %d: %s", final.Status, final.ResumedFromStep, final.Error)
	}
	got, err := m2.Front(cont.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(golden.Front, got.Front) {
		t.Fatalf("continued front differs: %d points vs %d", len(got.Front), len(golden.Front))
	}
	stats, err := m2.JobStats(cont.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2.Close() // drains the obs writers

	samples := readObsFile(t, obsPath)
	if want := before + int(stats.Samples); len(samples) != want {
		t.Fatalf("%s.obs holds %d samples, want %d (dead run) + %d (continuation)", dead.ID, len(samples), before, stats.Samples)
	}
	last := samples[len(samples)-1]
	if last.Values[fieldIndex(t, last.Fields, "step")] != 7 {
		t.Fatalf("continued stream ends at %v", last.Values)
	}
	readObsFile(t, filepath.Join(cfg.ObsDir, fresh.ID+".obs"))
}

// TestJobRecordBound: past Config.MaxResults finished jobs the record of
// the job that finished first is dropped. Its /v1/jobs/{id} endpoints
// answer 404 not_found, GET /v1/jobs neither lists nor counts it, a
// resume_job continues it under its own ID from its checkpoint, and its
// obs file stays one stream across the two runs.
func TestJobRecordBound(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Workers: 1, MaxResults: 2, CheckpointDir: filepath.Join(dir, "ckpt"),
		ObsDir: filepath.Join(dir, "obs"), ObsSampleInterval: time.Nanosecond})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	spec := smallNSGA2("ecg-ward", 7)
	spec.NSGA2 = &dse.NSGA2Config{PopulationSize: 8, Generations: 7}
	spec.CheckpointEvery = 2 // last checkpoint lands at generation 6
	first, golden := runToDone(t, m, spec)
	firstStats, err := m.JobStats(first.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	runToDone(t, m, smallNSGA2("ecg-ward", 8))
	runToDone(t, m, smallNSGA2("ecg-ward", 9))
	waitRetained(t, m, 2)
	var metrics strings.Builder
	m.WriteMetrics(&metrics)
	for _, line := range []string{"\nwsndse_jobs_retained 2\n", "\nwsndse_jobs_evicted_total 1\n"} {
		if !strings.Contains(metrics.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}

	for _, req := range []struct{ method, path string }{
		{http.MethodGet, ""}, {http.MethodGet, "/front"}, {http.MethodGet, "/events"},
		{http.MethodGet, "/stats"}, {http.MethodDelete, ""},
	} {
		r, err := http.NewRequest(req.method, srv.URL+"/v1/jobs/"+first.ID+req.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		var body errorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || err != nil || body.Error.Code != CodeNotFound {
			t.Errorf("%s %s of an evicted job: %d %+v (%v), want 404 %s",
				req.method, req.path, resp.StatusCode, body, err, CodeNotFound)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var page Page[JobInfo]
	err = json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if err != nil || page.Total != 2 || len(page.Items) != 2 {
		t.Fatalf("GET /v1/jobs: total %d, %d items (%v), want 2 retained", page.Total, len(page.Items), err)
	}

	resume := spec
	resume.ResumeJob = first.ID
	cont, err := m.Submit(resume)
	if err != nil {
		t.Fatal(err)
	}
	if cont.ID != first.ID {
		t.Fatalf("resume_job %s continued as %s", first.ID, cont.ID)
	}
	final := waitDone(t, m, cont.ID)
	if final.Status != StatusDone || final.ResumedFromStep != 6 {
		t.Fatalf("continued job %s from step %d: %s", final.Status, final.ResumedFromStep, final.Error)
	}
	got, err := m.Front(cont.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(golden.Front, got.Front) {
		t.Fatalf("continued front differs: %d points vs %d", len(got.Front), len(golden.Front))
	}
	contStats, err := m.JobStats(cont.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Close() // drains the obs writers

	samples := readObsFile(t, filepath.Join(dir, "obs", first.ID+".obs"))
	if want := firstStats.Samples + contStats.Samples; int64(len(samples)) != want {
		t.Fatalf("%s.obs holds %d samples, want %d + %d", first.ID, len(samples), firstStats.Samples, contStats.Samples)
	}
}
