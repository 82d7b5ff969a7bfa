package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
)

// wardSpace is the ecg-ward design space the service jobs search.
func wardSpace(tb testing.TB) *dse.Space {
	tb.Helper()
	sc, _ := scenario.Lookup("ecg-ward")
	problem, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
	if err != nil {
		tb.Fatal(err)
	}
	return problem.Space()
}

// checkpointSpecs are a plain and a 4-island job with the same
// checkpoint schedule: boundaries at steps 3, 6 and 9 of 12.
func checkpointSpecs() map[string]Spec {
	plain := smallNSGA2("ecg-ward", 9)
	plain.NSGA2 = &dse.NSGA2Config{PopulationSize: 16, Generations: 12}
	plain.CheckpointEvery = 3
	isl := islandSpec(9)
	isl.Islands, isl.MigrationInterval, isl.Migrants = 4, 3, 3
	return map[string]Spec{"plain": plain, "island": isl}
}

// cut is a synthetic checkpoint of n islands at step.
func cut(n, step int) []*dse.Snapshot {
	var ckpt []*dse.Snapshot
	for range n {
		ckpt = append(ckpt, &dse.Snapshot{Version: dse.SnapshotVersion, Algorithm: AlgoNSGA2, Step: step})
	}
	return ckpt
}

// TestRotationAndFallback drives the one writer and loader through the
// two-slot rotation for a plain and a 2-island layout: the second write
// rotates the first into the prev slot, a torn latest slot falls back
// to the previous checkpoint, and two corrupt slots are reported as
// corruption, not as a missing checkpoint.
func TestRotationAndFallback(t *testing.T) {
	for _, islands := range []int{1, 2} {
		t.Run(fmt.Sprintf("islands=%d", islands), func(t *testing.T) {
			dir := t.TempDir()
			m := newTestManager(t, Config{Workers: 1, CheckpointDir: dir})
			defer m.Close()
			r := &run{job: &job{info: JobInfo{ID: "j1"}}}
			// step is the step of a loaded checkpoint, -1 for none.
			step := func(ckpt []*dse.Snapshot) int {
				if len(ckpt) == 0 {
					return -1
				}
				return ckpt[0].Step
			}
			load := func() ([]*dse.Snapshot, error) { return LoadCheckpoint(dir, "j1", islands) }

			if _, err := load(); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("empty dir: err = %v, want os.ErrNotExist", err)
			}

			m.checkpoint(r, cut(islands, 1))
			if got, err := load(); err != nil || step(got) != 1 || len(got) != islands {
				t.Fatalf("after first write: %+v, %v", got, err)
			}
			for i := range islands {
				_, prev := slotPaths(dir, "j1", islands, i)
				if _, err := os.Stat(prev); err == nil {
					t.Fatalf("island %d: prev slot exists after a single write", i)
				}
			}

			second := cut(islands, 2)
			m.checkpoint(r, second)
			if len(r.ckpt) == 0 || r.ckpt[0] != second[0] {
				t.Fatal("checkpoint did not move the in-memory anchor")
			}
			if got, err := load(); err != nil || step(got) != 2 {
				t.Fatalf("latest = %+v, %v, want step 2", got, err)
			}
			for i := range islands {
				_, prev := slotPaths(dir, "j1", islands, i)
				data, err := os.ReadFile(prev)
				if err != nil {
					t.Fatal(err)
				}
				if snap, err := dse.DecodeSnapshotFile(data); err != nil || snap.Step != 1 {
					t.Fatalf("island %d prev slot = %+v, %v, want step 1", i, snap, err)
				}
			}

			// Torn latest slot of island 0: every island falls back to step 1.
			latest0, prev0 := slotPaths(dir, "j1", islands, 0)
			data, err := os.ReadFile(latest0)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(latest0, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := load(); err != nil || step(got) != 1 {
				t.Fatalf("fallback read: %+v, %v, want step 1", got, err)
			}

			// Both slots of island 0 corrupt: corruption, not absence.
			if err := os.WriteFile(prev0, []byte("CORRUPT"), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = load()
			if !errors.Is(err, dse.ErrCorruptSnapshot) || errors.Is(err, os.ErrNotExist) {
				t.Fatalf("both corrupt: err = %v, want a wrap of dse.ErrCorruptSnapshot", err)
			}
		})
	}
}

// TestNewCreatesCheckpointDir checks that New creates a missing
// checkpoint directory, as it does the obs directory, so a checkpoint
// write creates none; and that a directory New cannot create fails New.
func TestNewCreatesCheckpointDir(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "var", "ckpt")
	m := newTestManager(t, Config{Workers: 1, CheckpointDir: dir})
	defer m.Close()
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("checkpoint dir after New: %v", err)
	}
	m.checkpoint(&run{job: &job{info: JobInfo{ID: "j1"}}}, cut(1, 1))
	if got, err := LoadCheckpoint(dir, "j1", 1); err != nil || got[0].Step != 1 {
		t.Fatalf("first checkpoint: %+v, %v", got, err)
	}

	file := filepath.Join(root, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Workers: 1, CheckpointDir: filepath.Join(file, "ckpt")})
	if err == nil || !strings.Contains(err.Error(), "checkpoint dir") {
		t.Fatalf("New with a checkpoint dir under a file: %v, want a checkpoint dir error", err)
	}
}

// TestLoadCheckpointRoundTrip: the files a plain and an island job leave
// behind read back as the latest boundary, and that checkpoint resumes
// bit-identically — the process-death recovery path.
func TestLoadCheckpointRoundTrip(t *testing.T) {
	space := wardSpace(t)
	for name, spec := range checkpointSpecs() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			m := newTestManager(t, Config{Workers: 1, CheckpointDir: dir})
			defer m.Close()
			info, golden := runToDone(t, m, spec)

			islands := max(spec.Islands, 1)
			ckpt, err := LoadCheckpoint(dir, info.ID, islands)
			if err != nil {
				t.Fatal(err)
			}
			if len(ckpt) != islands {
				t.Fatalf("checkpoint has %d islands, want %d", len(ckpt), islands)
			}
			// The latest boundary for this schedule is step 9.
			for i, snap := range ckpt {
				if snap.Step != 9 {
					t.Fatalf("island %d restored at step %d, want 9", i, snap.Step)
				}
				if err := spec.search().ValidateResume(snap, space, 0); err != nil {
					t.Fatal(err)
				}
			}

			resume := spec
			resume.ResumeJob = info.ID
			resumed, front := runToDone(t, m, resume)
			sameFronts(t, golden, front, "disk-restored run vs golden")
			if resumed.ResumedFromStep != 9 {
				t.Fatalf("resumed from step %d, want 9", resumed.ResumedFromStep)
			}

			if _, err := LoadCheckpoint(dir, "j99", islands); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("missing job: err = %v, want os.ErrNotExist", err)
			}
		})
	}
}

// TestLoadCheckpointSkewedSlots: a crash mid-way through a checkpoint
// wave leaves islands at different latest steps; recovery must fall back
// to the newest step all islands cover.
func TestLoadCheckpointSkewedSlots(t *testing.T) {
	spec := checkpointSpecs()["island"]
	dir := t.TempDir()
	m := newTestManager(t, Config{Workers: 1, CheckpointDir: dir})
	defer m.Close()
	info, _ := runToDone(t, m, spec)

	// The torn wave: island 0's latest (step 9) survives, but island 1
	// only got as far as step 6 — drop its latest slot so its newest file
	// is the prev one.
	latest, prev := slotPaths(dir, info.ID, spec.Islands, 1)
	if err := os.Rename(prev, latest); err != nil {
		t.Fatal(err)
	}
	ckpt, err := LoadCheckpoint(dir, info.ID, spec.Islands)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpt) != spec.Islands {
		t.Fatalf("skewed recovery has %d islands, want %d", len(ckpt), spec.Islands)
	}
	for i, snap := range ckpt {
		if snap.Step != 6 {
			t.Fatalf("island %d restored at step %d, want 6", i, snap.Step)
		}
	}
}

// runToDone submits spec on m and returns the finished job's info and
// front.
func runToDone(t *testing.T, m *Manager, spec Spec) (JobInfo, FrontResponse) {
	t.Helper()
	info, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, info.ID)
	if final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	front, err := m.Front(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	return final, front
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint loader,
// the one reader of files that outlive the process. The bytes fill the
// slots of a plain and a 2-island checkpoint: raw in every latest slot,
// and inside a valid SHA-256 envelope (so the fuzzer reaches the snapshot
// JSON) in every prev slot. The loader must return a checkpoint or an
// error wrapping dse.ErrCorruptSnapshot, never panic, and every island
// snapshot of a checkpoint it returns must go through its algorithm's
// Search.ValidateResume on the ecg-ward space without panicking.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		f.Add(seed)
	}
	space := wardSpace(f)
	dir := f.TempDir() // every input overwrites every slot it loads
	f.Fuzz(func(t *testing.T, data []byte) {
		sum := sha256.Sum256(data)
		wrapped := fmt.Appendf(nil, `{"version":1,"sha256":%q,"snapshot":%s}`, hex.EncodeToString(sum[:]), data)
		for _, islands := range []int{1, 2} {
			id := fmt.Sprintf("j%d", islands)
			for i := range islands {
				latest, prev := slotPaths(dir, id, islands, i)
				if err := os.WriteFile(latest, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(prev, wrapped, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			ckpt, err := LoadCheckpoint(dir, id, islands)
			if err != nil {
				if !errors.Is(err, dse.ErrCorruptSnapshot) {
					t.Fatalf("%d islands: undecodable slots gave %v, want a wrap of dse.ErrCorruptSnapshot", islands, err)
				}
				continue
			}
			if len(ckpt) != islands {
				t.Fatalf("%d islands: checkpoint has %d", islands, len(ckpt))
			}
			for _, snap := range ckpt {
				_ = dse.Search{Algorithm: snap.Algorithm}.ValidateResume(snap, space, 0)
			}
		}
	})
}

// checkpointSeeds are FuzzLoadCheckpoint's seeds: the latest slots of
// short real nsga2, mosa and island jobs, as written and as the bare
// snapshot JSON inside their envelopes, and two hand-written inputs. The
// jobs are tiny because every new input the fuzzer keeps is minimized,
// at a few file writes per try.
func checkpointSeeds(tb testing.TB) (seeds [][]byte) {
	plain := smallNSGA2("ecg-ward", 7)
	plain.NSGA2 = &dse.NSGA2Config{PopulationSize: 4, Generations: 3}
	mosa := chaosSpecs()["mosa"]
	mosa.MOSA = &dse.MOSAConfig{Iterations: 512, Restarts: 1}
	plain.CheckpointEvery, mosa.CheckpointEvery = 1, 1
	isl := islandSpec(7)
	isl.NSGA2, isl.MigrationInterval = &dse.NSGA2Config{PopulationSize: 4, Generations: 4}, 2
	dir := tb.TempDir()
	m := newTestManager(tb, Config{Workers: 1, CheckpointDir: dir})
	defer m.Close()
	for _, spec := range []Spec{plain, mosa, isl} {
		info, err := m.Submit(spec)
		if err != nil {
			tb.Fatal(err)
		}
		if final := waitDone(tb, m, info.ID); final.Status != StatusDone {
			tb.Fatalf("seed job ended %s: %s", final.Status, final.Error)
		}
		islands := max(spec.Islands, 1)
		for i := range islands {
			latest, _ := slotPaths(dir, info.ID, islands, i)
			data, err := os.ReadFile(latest)
			if err != nil {
				tb.Fatal(err)
			}
			var env struct{ Snapshot json.RawMessage }
			if err := json.Unmarshal(data, &env); err != nil {
				tb.Fatal(err)
			}
			seeds = append(seeds, data, []byte(env.Snapshot))
		}
	}
	return append(seeds,
		[]byte(`{"version":1,"algorithm":"nsga2","step":-3,"population":[{"config":[-1]}]}`),
		[]byte("null"))
}

// TestCheckpointEnvelopeMatchesMarshal: every checkpoint file among
// FuzzLoadCheckpoint's seeds is json.Marshal's form of its envelope, and
// every snapshot a seed decodes to gets that form from
// dse.EncodeSnapshotFile, byte for byte.
func TestCheckpointEnvelopeMatchesMarshal(t *testing.T) {
	type envelope struct {
		Version  int             `json:"version"`
		SHA256   string          `json:"sha256"`
		Snapshot json.RawMessage `json:"snapshot"`
	}
	marshal := func(raw []byte) []byte {
		sum := sha256.Sum256(raw)
		out, err := json.Marshal(envelope{dse.SnapshotVersion, hex.EncodeToString(sum[:]), raw})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	files := 0
	for i, seed := range checkpointSeeds(t) {
		var env envelope
		if json.Unmarshal(seed, &env) == nil && env.Snapshot != nil {
			files++
			if want := marshal(env.Snapshot); !bytes.Equal(seed, want) {
				t.Fatalf("seed %d: checkpoint file\n%s\nwant\n%s", i, seed, want)
			}
		}
		var snap dse.Snapshot
		if err := json.Unmarshal(seed, &snap); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		raw, err := json.Marshal(&snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dse.EncodeSnapshotFile(&snap)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshal(raw); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: envelope\n%s\nwant\n%s", i, got, want)
		}
	}
	if files == 0 {
		t.Fatal("no checkpoint file among the seeds")
	}
}
