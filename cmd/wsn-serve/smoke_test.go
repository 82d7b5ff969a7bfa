package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"wsndse/internal/service"
)

var update = flag.Bool("update", false, "rewrite testdata golden fronts from the current run")

// smokeSpec is the job the smoke test (and the CI service-smoke shell job,
// which must stay in sync — see .github/workflows/ci.yml) submits. The
// golden file pins the exact front this seed produces.
const smokeSpec = `{"scenario":"ecg-ward","algorithm":"nsga2","seed":7,"workers":2,
  "nsga2":{"population_size":16,"generations":12}}`

// restartSpec is the long checkpointing job the crash/drain recovery
// smokes interrupt. Big enough that checkpoints exist well before
// completion; even if the job does finish before the interruption
// lands, resuming from the last checkpoint replays the same trajectory,
// so neither test can race. Both diff against smoke-front-restart.json.
const restartSpec = `{"scenario":"ecg-ward","algorithm":"nsga2","seed":7,"workers":2,"checkpoint_every":100,
  "nsga2":{"population_size":16,"generations":1500}}`

// serveBinary builds wsn-serve once per test run (or honors
// $WSN_SERVE_BIN, the CI arrangement).
func serveBinary(t *testing.T) string {
	t.Helper()
	if bin := os.Getenv("WSN_SERVE_BIN"); bin != "" {
		return bin
	}
	bin := filepath.Join(t.TempDir(), "wsn-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building wsn-serve: %v\n%s", err, out)
	}
	return bin
}

// launchServe boots the service on a random port and returns its base
// URL plus the running process, leaving signalling/waiting to the
// caller; a kill is registered as cleanup so an aborted test never
// leaks the child.
func launchServe(t *testing.T, bin string, extraArgs ...string) (string, *exec.Cmd) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-jobs", "2"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	// The "listening on" stdout line reports the resolved listen address.
	scanner := bufio.NewScanner(stdout)
	base := ""
	for scanner.Scan() {
		line := scanner.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			base = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if base == "" {
		t.Fatalf("wsn-serve never reported its address: %v", scanner.Err())
	}
	go func() { // keep the pipe drained
		for scanner.Scan() {
		}
	}()
	return base, cmd
}

// startServe boots the service and returns its base URL plus a stop
// function (SIGKILL + reap) so restart tests can kill the process
// mid-test.
func startServe(t *testing.T, bin string, extraArgs ...string) (string, func()) {
	t.Helper()
	base, cmd := launchServe(t, bin, extraArgs...)
	return base, func() {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

// goldenFront is the canonical JSON shape the golden files pin.
type goldenFront struct {
	Scenario  string `json:"scenario"`
	Algorithm string `json:"algorithm"`
	Seed      int64  `json:"seed"`
	Front     []struct {
		Config []int     `json:"config"`
		Objs   []float64 `json:"objs"`
	} `json:"front"`
}

// submitWait submits a job spec, polls it to completion and returns its ID.
func submitWait(t *testing.T, base, spec string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	decodeBody(t, resp, http.StatusCreated, &job)

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, http.StatusOK, &job)
		if job.Status == "done" {
			return job.ID
		}
		if job.Status == "failed" || job.Status == "cancelled" {
			t.Fatalf("job ended %s", job.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fetchFront reads a finished job's front.
func fetchFront(t *testing.T, base, id string) goldenFront {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/front")
	if err != nil {
		t.Fatal(err)
	}
	var front goldenFront
	decodeBody(t, resp, http.StatusOK, &front)
	if len(front.Front) == 0 {
		t.Fatal("empty front")
	}
	return front
}

// runJob submits a job spec, polls it to completion and returns its front.
func runJob(t *testing.T, base, spec string) goldenFront {
	t.Helper()
	return fetchFront(t, base, submitWait(t, base, spec))
}

// resumeRestartJob resubmits restartSpec with {"resume_job": id} to a
// server restarted on the interrupted job's checkpoint directory. The
// job must continue under its old ID from a real checkpoint; its front
// is returned.
func resumeRestartJob(t *testing.T, base, id string) goldenFront {
	t.Helper()
	spec := strings.TrimSuffix(restartSpec, "}") + `,"resume_job":"` + id + `"}`
	if got := submitWait(t, base, spec); got != id {
		t.Fatalf("resume_job %s continued as %s", id, got)
	}
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ResumedFromStep int `json:"resumed_from_step"`
	}
	decodeBody(t, resp, http.StatusOK, &info)
	if info.ResumedFromStep < 1 {
		t.Fatalf("job %s did not resume from a checkpoint: %+v", id, info)
	}
	return fetchFront(t, base, id)
}

// checkGolden diffs a front against its committed golden file (canonical
// re-marshal, so formatting differences never mask or fake a diff).
func checkGolden(t *testing.T, front goldenFront, name string) {
	t.Helper()
	got, err := json.MarshalIndent(front, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d front points)", golden, len(front.Front))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run `go test ./cmd/wsn-serve -run Smoke -update` to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("front differs from golden %s.\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestServeSmoke builds the wsn-serve binary (or uses $WSN_SERVE_BIN),
// boots it on a random port, submits a small NSGA-II job over plain HTTP,
// polls it to completion, and diffs the returned front against the golden
// file — the end-to-end determinism gate for the whole service stack as
// actually deployed.
func TestServeSmoke(t *testing.T) {
	base, _ := startServe(t, serveBinary(t))
	checkGolden(t, runJob(t, base, smokeSpec), "smoke-front.json")
}

// TestServeWarmRestartSmoke is the persistence + warm-start gate over the
// deployed binary: run a job with a result directory, kill the process,
// boot a fresh one on the same directory, verify the archived front is
// still served by /v1/results, then submit a warm_start:auto job with a
// different seed and check it was actually seeded from the prior front —
// with its own golden, since seeding changes the trajectory.
func TestServeWarmRestartSmoke(t *testing.T) {
	bin := serveBinary(t)
	dir := t.TempDir()
	base, stop := startServe(t, bin, "-results-dir", dir)
	checkGolden(t, runJob(t, base, smokeSpec), "smoke-front.json")
	stop()

	base, _ = startServe(t, bin, "-results-dir", dir)
	resp, err := http.Get(base + "/v1/results?scenario=ecg-ward&algorithm=nsga2")
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Total int `json:"total"`
		Items []struct {
			Version int               `json:"version"`
			Front   []json.RawMessage `json:"front"`
		} `json:"items"`
	}
	decodeBody(t, resp, http.StatusOK, &page)
	if page.Total != 1 || len(page.Items) != 1 || len(page.Items[0].Front) == 0 {
		t.Fatalf("restarted server lost the archived front: %+v", page)
	}

	warmSpec := `{"scenario":"ecg-ward","algorithm":"nsga2","seed":21,"workers":2,"warm_start":"auto",
  "nsga2":{"population_size":16,"generations":12}}`
	id := submitWait(t, base, warmSpec)
	resp, err = http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		WarmStart *struct {
			Mode       string `json:"mode"`
			SeedPoints int    `json:"seed_points"`
			Exact      bool   `json:"exact"`
			Sources    []int  `json:"sources"`
		} `json:"warm_start"`
	}
	decodeBody(t, resp, http.StatusOK, &info)
	ws := info.WarmStart
	if ws == nil || ws.Mode != "auto" || !ws.Exact || ws.SeedPoints == 0 {
		t.Fatalf("warm job was not seeded from the restarted store: %+v", ws)
	}
	if len(ws.Sources) != 1 || ws.Sources[0] != page.Items[0].Version {
		t.Fatalf("warm sources %v, want [%d]", ws.Sources, page.Items[0].Version)
	}
	checkGolden(t, fetchFront(t, base, id), "smoke-front-warm.json")
}

// TestServeCrashResumeSmoke is the crash-recovery gate over the deployed
// binary: a checkpointing job's server is SIGKILLed mid-run, a fresh
// process resumes the job via resume_job from the durable checkpoint
// left behind, and the resumed front must match — bit for bit — the
// golden pinned by an uninterrupted run of the same spec. This is the
// end-to-end proof that kill -9 costs wall-clock, never results.
func TestServeCrashResumeSmoke(t *testing.T) {
	bin := serveBinary(t)

	// Reference: the uninterrupted run pins the golden.
	base, stop := startServe(t, bin)
	checkGolden(t, runJob(t, base, restartSpec), "smoke-front-restart.json")
	stop()

	// Victim: same spec with a durable checkpoint directory, killed once a
	// verified checkpoint is on disk.
	ckptDir := t.TempDir()
	base, stop = startServe(t, bin, "-checkpoint-dir", ckptDir)
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(restartSpec))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	decodeBody(t, resp, http.StatusCreated, &job)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := service.LoadCheckpoint(ckptDir, job.ID, 1); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no durable checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop() // SIGKILL: no graceful shutdown, no final checkpoint flush

	// Restart: a fresh process resumes from whatever the dead one left.
	base, _ = startServe(t, bin, "-checkpoint-dir", ckptDir)
	checkGolden(t, resumeRestartJob(t, base, job.ID), "smoke-front-restart.json")
}

// TestServeIslandSmoke runs the island decomposition end to end over
// the deployed binary: a 2-island job with one migration boundary must
// finish, stream island events, and pin its merged front to a golden —
// island runs have their own trajectory (migration injects elites), so
// this is a separate golden from the plain smoke.
func TestServeIslandSmoke(t *testing.T) {
	base, _ := startServe(t, serveBinary(t))
	islandSpec := `{"scenario":"ecg-ward","algorithm":"nsga2","seed":7,"workers":2,
  "islands":2,"migration_interval":6,"nsga2":{"population_size":16,"generations":12}}`
	id := submitWait(t, base, islandSpec)

	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Islands []struct {
			Island int `json:"island"`
			Step   int `json:"step"`
		} `json:"islands"`
	}
	decodeBody(t, resp, http.StatusOK, &info)
	if len(info.Islands) != 2 || info.Islands[0].Step != 12 || info.Islands[1].Step != 12 {
		t.Fatalf("island supervision state not surfaced: %+v", info.Islands)
	}
	checkGolden(t, fetchFront(t, base, id), "smoke-front-island.json")
}

// TestServeDrainResumeSmoke is the graceful-shutdown gate: SIGTERM a
// server mid-job and it must drain — cancel the job at a search
// boundary, leave its durable checkpoint behind, and exit cleanly
// within -shutdown-timeout. A fresh process on the same checkpoint
// directory then resumes the interrupted job server-side via
// {"resume_job": "<old id>"} — no client-held snapshot round-trip —
// and the front must match the same golden the uninterrupted run pins.
func TestServeDrainResumeSmoke(t *testing.T) {
	bin := serveBinary(t)
	ckptDir := t.TempDir()
	base, cmd := launchServe(t, bin, "-checkpoint-dir", ckptDir, "-shutdown-timeout", "30s")

	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(restartSpec))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	decodeBody(t, resp, http.StatusCreated, &job)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := service.LoadCheckpoint(ckptDir, job.ID, 1); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no durable checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Graceful: SIGTERM, then the process must exit on its own (well
	// under the 30s drain budget) with status 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("drained server exited with: %v", err)
		}
	case <-time.After(45 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}

	// Restart: the new server reads the drained job's checkpoint from
	// disk by ID and continues the job under that ID. Its fresh jobs
	// number after every ID already in the checkpoint directory, so no
	// other job can write this one's checkpoint files.
	base, _ = startServe(t, bin, "-checkpoint-dir", ckptDir)
	checkGolden(t, resumeRestartJob(t, base, job.ID), "smoke-front-restart.json")
}

// TestServeFamilySmoke is the same gate over the generated population: the
// service boots with -family all and explores one member of each builtin
// family; the fronts must match their committed goldens bit for bit, so a
// drifting family definition (axis change, platform recalibration, seed
// derivation) shows up as a golden diff here rather than as a silent
// change in served results.
func TestServeFamilySmoke(t *testing.T) {
	base, _ := startServe(t, serveBinary(t), "-family", "all")
	jobs := []struct {
		scenario, golden string
	}{
		{"chipset-sweep/telosb-n4-homo-short-uniform", "smoke-front-chipset.json"},
		{"mobile-relay/n4-corridor-fast-z1", "smoke-front-mobile-relay.json"},
	}
	for _, j := range jobs {
		spec := `{"scenario":"` + j.scenario + `","algorithm":"nsga2","seed":7,"workers":2,
  "nsga2":{"population_size":16,"generations":12}}`
		checkGolden(t, runJob(t, base, spec), j.golden)
	}
}

func decodeBody(t *testing.T, resp *http.Response, wantStatus int, out any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var raw bytes.Buffer
		raw.ReadFrom(resp.Body)
		t.Fatalf("HTTP %d (want %d): %s", resp.StatusCode, wantStatus, raw.String())
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
