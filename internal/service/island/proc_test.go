package island

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"wsndse/internal/casestudy"
	"wsndse/internal/cliutil"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
)

// islandBinary builds cmd/wsn-island once per test binary.
func islandBinary(t *testing.T) string {
	t.Helper()
	binDirOnce.Do(func() {
		dir, err := os.MkdirTemp("", "wsn-island-bin")
		if err != nil {
			t.Fatal(err)
		}
		binPath = filepath.Join(dir, "wsn-island")
		out, err := exec.Command("go", "build", "-o", binPath, "wsndse/cmd/wsn-island").CombinedOutput()
		if err != nil {
			binErr = err
			t.Logf("go build wsn-island: %s", out)
		}
	})
	if binErr != nil {
		t.Fatalf("building wsn-island: %v", binErr)
	}
	return binPath
}

var (
	binDirOnce sync.Once
	binPath    string
	binErr     error
)

// procJob is a small real-scenario job: the worker process compiles the
// scenario itself, so the test must use a registered one.
func procJob() (Job, Config) {
	return Job{
			JobID:    "p1",
			Scenario: "ecg-ward",
			Search: dse.Search{
				Algorithm: "nsga2",
				NSGA2:     &dse.NSGA2Config{PopulationSize: 16, Generations: 12},
				Seed:      7,
				Workers:   2,
			},
		}, Config{
			Islands:  2,
			Interval: 6, // one migration at generation 6
			Migrants: 3,
		}
}

// compileScenario builds the in-process space/evaluator the coordinator
// needs for migration injection and front merging.
func compileScenario(t testing.TB, name string) (*dse.Space, dse.Evaluator) {
	t.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	problem, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := problem.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return problem.Space(), compiled.Evaluator()
}

func runProcCoordinator(t *testing.T, job Job, cfg Config) *dse.Result {
	t.Helper()
	space, eval := compileScenario(t, job.Scenario)
	c, err := New(cfg, job, space, eval)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestProcRunnerMatchesGoRunner: worker processes walk the identical
// trajectory as in-process islands — the wire round-trip of snapshots
// and fronts is lossless.
func TestProcRunnerMatchesGoRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	bin := islandBinary(t)
	job, cfg := procJob()
	golden := runProcCoordinator(t, job, cfg) // GoRunner default

	cfg.Runner = &ProcRunner{Bin: bin}
	viaProc := runProcCoordinator(t, job, cfg)
	sameResult(t, golden, viaProc, "proc runner vs go runner")
}

// TestProcRunnerFamilyScenario: a worker process resolves a generated
// family member on its own, so a family job keeps its process isolation:
// no round crashes and the front is the in-process one.
func TestProcRunnerFamilyScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	bin := islandBinary(t)
	job, cfg := procJob()
	job.Scenario = "chipset-sweep/iris-n3-relay-long-block"
	// This process registers the member, as wsn-serve -family does; the
	// worker process must resolve it on its own.
	if _, err := cliutil.LookupScenario(job.Scenario); err != nil {
		t.Fatal(err)
	}
	golden := runProcCoordinator(t, job, cfg)

	cfg.Runner = &ProcRunner{Bin: bin}
	events := collectEvents(&cfg)
	viaProc := runProcCoordinator(t, job, cfg)
	sameResult(t, golden, viaProc, "family member: proc runner vs go runner")
	if n := events(EventCrash); n != 0 {
		t.Errorf("%d crash events, want none", n)
	}
}

// TestProcWorkerSigkillFailover is the headline robustness proof at the
// process level: SIGKILL a worker mid-round and the merged front is
// bit-identical to the undisturbed run.
func TestProcWorkerSigkillFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	bin := islandBinary(t)
	job, cfg := procJob()
	golden := runProcCoordinator(t, job, cfg)

	var killed atomic.Bool
	cfg.Runner = &ProcRunner{
		Bin: bin,
		OnSpawn: func(isl, pid int) {
			if isl == 1 && !killed.Swap(true) {
				syscall.Kill(pid, syscall.SIGKILL)
			}
		},
	}
	events := collectEvents(&cfg)
	survived := runProcCoordinator(t, job, cfg)
	sameResult(t, golden, survived, "SIGKILLed worker vs golden")
	if !killed.Load() {
		t.Fatal("no worker was killed")
	}
	if events(EventCrash) != 1 || events(EventRestart) != 1 {
		t.Errorf("crash=%d restart=%d, want 1/1", events(EventCrash), events(EventRestart))
	}
}

// TestProcRunnerMissingBinaryFallsBack: when no worker process can start
// at all, every island exhausts its runner budget in the first round,
// runs in-process from then on, and the job returns the in-process
// front. The budget counts over the whole job, so no later round fails.
func TestProcRunnerMissingBinaryFallsBack(t *testing.T) {
	job, cfg := procJob()
	golden := runProcCoordinator(t, job, cfg)

	cfg.Runner = &ProcRunner{Bin: filepath.Join(t.TempDir(), "no-such-wsn-island")}
	events := collectEvents(&cfg)
	space, eval := compileScenario(t, job.Scenario)
	c, err := New(cfg, job, space, eval)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, golden, res, "missing worker binary vs in-process")
	if n := events(EventFallback); n != cfg.Islands {
		t.Errorf("%d fallback events, want one per island (%d)", n, cfg.Islands)
	}
	for _, st := range c.Status() {
		if !st.Inline || st.Restarts != maxRestarts+1 {
			t.Errorf("island %d: inline=%v restarts=%d, want inline after %d", st.Island, st.Inline, st.Restarts, maxRestarts+1)
		}
	}
}

// TestRequestWireFormat pins the line protocol wsn-island reads on stdin:
// a request written before Job embedded dse.Search decodes into the same
// Job, and the Job re-encodes under the same keys.
func TestRequestWireFormat(t *testing.T) {
	const line = `{"job":{"job_id":"j3","scenario":"ecg-ward","algorithm":"nsga2",` +
		`"nsga2":{"population_size":16,"generations":12},"seed":7,"workers":2},` +
		`"island":1,"seed":-4242,"stop_after":6}`
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		t.Fatal(err)
	}
	want := Request{
		Job: Job{JobID: "j3", Scenario: "ecg-ward", Search: dse.Search{
			Algorithm: "nsga2",
			NSGA2:     &dse.NSGA2Config{PopulationSize: 16, Generations: 12},
			Seed:      7,
			Workers:   2,
		}},
		Island:    1,
		Seed:      -4242,
		StopAfter: 6,
	}
	if !reflect.DeepEqual(req, want) {
		t.Fatalf("decoded %+v\nwant    %+v", req, want)
	}
	data, err := json.Marshal(req.Job)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(keys))
	for k := range keys {
		got = append(got, k)
	}
	slices.Sort(got)
	if wantKeys := []string{"algorithm", "job_id", "nsga2", "scenario", "seed", "workers"}; !slices.Equal(got, wantKeys) {
		t.Fatalf("job re-encodes with keys %v, want %v", got, wantKeys)
	}
}

// FuzzProcLine feeds arbitrary bytes to the reader of a worker's stdout,
// the island protocol's input from outside the process. Any bytes yield
// a response or an error, never a panic, and a response goes through the
// coordinator's check, as a paused and as a final round, without
// panicking.
func FuzzProcLine(f *testing.F) {
	job, cfg := testJob("nsga2")
	space := testSpace(12, 4, 3)
	eval := &testEval{space: space}
	c, err := New(cfg, job, space, eval)
	if err != nil {
		f.Fatal(err)
	}
	// Seeds: island 1's beat/done stream of a paused and of a final
	// round, encoded as wsn-island writes them, and an error line.
	for _, stopAfter := range []int{cfg.Interval, 0} {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		req := Request{Job: job, Island: 1, Seed: dse.ForkSeed(job.Seed, 1), StopAfter: stopAfter}
		resp, err := (&GoRunner{Space: space, Eval: eval}).RunRound(context.Background(), req, func(step int) {
			enc.Encode(ProcLine{Type: "beat", Step: step})
		})
		if err != nil {
			f.Fatal(err)
		}
		enc.Encode(ProcLine{Type: "done", Response: resp})
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"type":"error","error":"decode request: unexpected EOF"}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := readRound(bytes.NewReader(data), 1, nil)
		if (resp == nil) == (err == nil) {
			t.Fatalf("response %v with error %v, want exactly one", resp, err)
		}
		if resp != nil {
			_ = c.check(1, cfg.Interval, resp)
			_ = c.check(1, 0, resp)
		}
	})
}

// FuzzIslandRequest feeds arbitrary bytes to a worker process's request
// decoder, the island protocol's other input from outside the process:
// wsn-island decodes its stdin with json.NewDecoder and runs the round
// through GoRunner, here over ecg-ward under a 100 ms deadline. Nothing
// may panic, and a round that succeeds carries exactly one of Snapshot
// and Result: a snapshot the job's search can resume over the same
// space, or a front of configurations inside it. Requests beyond the
// service's spec caps (64 workers, 4096 population members or MOSA
// chains) are skipped: the coordinator never sends them. The committed
// corpus holds a fresh and a resumed round's stdin from a real
// ProcRunner run, plus null and {}.
func FuzzIslandRequest(f *testing.F) {
	space, eval := compileScenario(f, "ecg-ward")
	runner := &GoRunner{Space: space, Eval: eval}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		s := req.Job.Search
		if s.Workers > 64 || (s.NSGA2 != nil && s.NSGA2.PopulationSize > 4096) || (s.MOSA != nil && s.MOSA.Restarts > 4096) {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		resp, err := runner.RunRound(ctx, req, nil)
		if err != nil {
			return
		}
		if (resp.Snapshot == nil) == (resp.Result == nil) {
			t.Fatalf("round returned snapshot %v and result %v, want exactly one", resp.Snapshot != nil, resp.Result != nil)
		}
		if resp.Snapshot != nil {
			if err := s.ValidateResume(resp.Snapshot, space, eval.NumObjectives()); err != nil {
				t.Fatalf("paused round's snapshot does not resume: %v", err)
			}
			return
		}
		for _, p := range resp.Result.Front {
			if !space.Valid(p.Config) {
				t.Fatalf("front config %v is outside the space", p.Config)
			}
		}
	})
}
