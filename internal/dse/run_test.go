package dse

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// sameFront compares fronts only — resumed runs may legitimately recount
// evaluations that were lost with the pre-checkpoint memo cache, so counts
// are not part of the resume contract.
func sameFront(t *testing.T, a, b *Result, label string) {
	t.Helper()
	if len(a.Front) != len(b.Front) {
		t.Fatalf("%s: front sizes differ: %d vs %d", label, len(a.Front), len(b.Front))
	}
	for i := range a.Front {
		if !reflect.DeepEqual(a.Front[i], b.Front[i]) {
			t.Fatalf("%s: front point %d differs:\n%+v\nvs\n%+v", label, i, a.Front[i], b.Front[i])
		}
	}
}

// roundTrip pushes a snapshot through its JSON form, as the service and
// the on-disk checkpoint files do, so resume tests exercise the
// serialized representation rather than in-memory aliasing.
func roundTrip(t *testing.T, snap *Snapshot) *Snapshot {
	t.Helper()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	out := &Snapshot{}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	return out
}

// captureLatest returns Options that checkpoint every `every` boundaries
// into *latest.
func captureLatest(latest **Snapshot, every int) Options {
	return Options{
		CheckpointEvery: every,
		Checkpoint: func(s *Snapshot) error {
			*latest = s
			return nil
		},
	}
}

// TestResumeMatchesUninterrupted is the core checkpoint/resume contract on
// every algorithm: interrupt a run right after a mid-run checkpoint,
// resume from the serialized snapshot, and the final front is bit-identical
// to the uninterrupted run's.
func TestResumeMatchesUninterrupted(t *testing.T) {
	s := testSpace(12, 4, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	// Exhaustive's boundaries fire every exhaustiveBatch configurations, so
	// its space must span several batches for a mid-run checkpoint.
	sBig := testSpace(20, 18, 6)
	evalBig := &constrainedEvaluator{inner: &convexEvaluator{space: sBig}}

	algorithms := []struct {
		search Search
		space  *Space
		eval   Evaluator
	}{
		{Search{Algorithm: "nsga2", Seed: 9, Workers: 2, NSGA2: &NSGA2Config{PopulationSize: 16, Generations: 12}}, s, eval},
		{Search{Algorithm: "mosa", Seed: 5, Workers: 2, MOSA: &MOSAConfig{Iterations: 4000, Restarts: 4}}, s, eval},
		{Search{Algorithm: "exhaustive", Workers: 2, MaxPoints: 1000000}, sBig, evalBig},
		{Search{Algorithm: "random", Seed: 7, Workers: 2, Budget: 3000}, s, eval},
	}
	for _, alg := range algorithms {
		name := alg.search.Algorithm
		run := func(opts Options) (*Result, error) { return alg.search.Run(alg.space, alg.eval, opts) }
		t.Run(name, func(t *testing.T) {
			want, err := run(Options{})
			if err != nil {
				t.Fatal(err)
			}

			// Kill the run by cancelling from inside the checkpoint sink:
			// the boundary protocol persists the snapshot before honoring
			// cancellation, so the snapshot survives the "kill".
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var snap *Snapshot
			opts := Options{
				Context:         ctx,
				CheckpointEvery: 1,
				Checkpoint: func(s *Snapshot) error {
					if snap == nil {
						snap = s
						cancel()
					}
					return nil
				},
			}
			partial, err := run(opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run returned %v, want context.Canceled", err)
			}
			if partial == nil {
				t.Fatal("interrupted run returned no partial result")
			}
			if snap == nil {
				t.Fatal("no checkpoint was taken")
			}
			if snap.Algorithm != name {
				t.Fatalf("snapshot algorithm %q, want %q", snap.Algorithm, name)
			}

			got, err := run(Options{Resume: roundTrip(t, snap)})
			if err != nil {
				t.Fatal(err)
			}
			sameFront(t, want, got, name+" resume")
			if got.Evaluated < len(want.Front) {
				t.Fatalf("resumed Evaluated=%d implausibly small", got.Evaluated)
			}
		})
	}
}

// TestProgressSinkCadence checks the sink fires exactly once per
// generation with monotonically growing coverage and a final step equal to
// TotalSteps.
func TestProgressSinkCadence(t *testing.T) {
	s := testSpace(8, 3)
	eval := &convexEvaluator{space: s}
	var steps []int
	var lastEval int
	opts := Options{Progress: func(p Progress) {
		if p.Algorithm != "nsga2" {
			t.Errorf("progress algorithm %q", p.Algorithm)
		}
		if p.TotalSteps != 10 {
			t.Errorf("TotalSteps=%d, want 10", p.TotalSteps)
		}
		if p.Evaluated < lastEval {
			t.Errorf("Evaluated went backwards: %d after %d", p.Evaluated, lastEval)
		}
		if len(p.Front) == 0 {
			t.Error("empty front snapshot on a feasible space")
		}
		lastEval = p.Evaluated
		steps = append(steps, p.Step)
	}}
	if _, err := (Search{Algorithm: "nsga2", Seed: 3,
		NSGA2: &NSGA2Config{PopulationSize: 8, Generations: 10}}).Run(s, eval, opts); err != nil {
		t.Fatal(err)
	}
	if len(steps) != 10 {
		t.Fatalf("sink fired %d times, want 10", len(steps))
	}
	for i, st := range steps {
		if st != i+1 {
			t.Fatalf("steps %v not consecutive", steps)
		}
	}
}

// TestOptionsZeroValueIdentical pins that the Options plumbing itself does
// not perturb results: a run with zero Options and one with a context and
// a sink attached are bit-identical, counts included.
func TestOptionsZeroValueIdentical(t *testing.T) {
	s := testSpace(10, 4, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	for _, search := range []Search{
		{Algorithm: "nsga2", Seed: 4, NSGA2: &NSGA2Config{PopulationSize: 16, Generations: 10}},
		{Algorithm: "mosa", Seed: 4, MOSA: &MOSAConfig{Iterations: 2000}},
	} {
		a, err := search.Run(s, eval, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := search.Run(s, eval, Options{Context: context.Background(), Progress: func(Progress) {}})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, a, b, search.Algorithm+" options plumbing")
	}
}

// TestDeprecatedShimsMatchRun pins NSGA2Opts and MOSAOpts, which move a
// config's Seed and Workers onto the Search, to Search.Run with the same
// seed and workers: fronts and counts are equal.
func TestDeprecatedShimsMatchRun(t *testing.T) {
	s := testSpace(10, 4, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	for _, workers := range []int{1, 2} {
		want, err := Search{Algorithm: "nsga2", Seed: 6, Workers: workers,
			NSGA2: &NSGA2Config{PopulationSize: 16, Generations: 10}}.Run(s, eval, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 16, Generations: 10, Seed: 6, Workers: workers}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, want, got, fmt.Sprintf("NSGA2Opts at workers %d", workers))

		want, err = Search{Algorithm: "mosa", Seed: 6, Workers: workers,
			MOSA: &MOSAConfig{Iterations: 2000}}.Run(s, eval, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err = MOSAOpts(s, eval, MOSAConfig{Iterations: 2000, Seed: 6, Workers: workers}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, want, got, fmt.Sprintf("MOSAOpts at workers %d", workers))
	}
}

// TestCancelledContextReturnsPartial checks immediate-cancellation
// semantics: the search notices at its first boundary and hands back what
// it has, tagged with the context error.
func TestCancelledContextReturnsPartial(t *testing.T) {
	s := testSpace(8, 3)
	eval := &convexEvaluator{space: s}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Search{Algorithm: "nsga2", Seed: 2,
		NSGA2: &NSGA2Config{PopulationSize: 8, Generations: 50}}.Run(s, eval, Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Front) == 0 {
		t.Fatal("cancelled run should still return the seeded generation's front")
	}
	if res.Evaluated > 2*8 {
		t.Fatalf("cancelled-at-first-boundary run evaluated %d points, want ≤ %d", res.Evaluated, 2*8)
	}
}

// TestCheckpointErrorAborts checks that a failing CheckpointFunc stops the
// run with a descriptive error and the partial result.
func TestCheckpointErrorAborts(t *testing.T) {
	s := testSpace(8, 3)
	eval := &convexEvaluator{space: s}
	boom := fmt.Errorf("disk full")
	res, err := Search{Algorithm: "nsga2", Seed: 2,
		NSGA2: &NSGA2Config{PopulationSize: 8, Generations: 50}}.Run(s, eval,
		Options{CheckpointEvery: 3, Checkpoint: func(*Snapshot) error { return boom }})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if res == nil || len(res.Front) == 0 {
		t.Fatal("aborted run should still return its partial result")
	}
}

// TestSnapshotResumeValidation covers the refusal paths: wrong algorithm,
// wrong version, mismatched population size, out-of-space configs, short
// objective vectors, objectives on an infeasible point, negative cursors
// and cursors off a batch boundary.
func TestSnapshotResumeValidation(t *testing.T) {
	s := testSpace(8, 3)
	eval := &convexEvaluator{space: s}
	ga := Search{Algorithm: "nsga2", Seed: 1, NSGA2: &NSGA2Config{PopulationSize: 8, Generations: 6}}
	var snap *Snapshot
	latest := captureLatest(&snap, 2)
	if _, err := ga.Run(s, eval, latest); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot captured")
	}

	if _, err := (Search{Algorithm: "mosa", MOSA: &MOSAConfig{}}).Run(s, eval, Options{Resume: snap}); err == nil {
		t.Error("mosa accepted an nsga2 snapshot")
	}
	bad := roundTrip(t, snap)
	bad.Version = 99
	if _, err := ga.Run(s, eval, Options{Resume: bad}); err == nil {
		t.Error("version mismatch accepted")
	}
	bad = roundTrip(t, snap)
	ga16 := ga
	ga16.NSGA2 = &NSGA2Config{PopulationSize: 16, Generations: 6}
	if _, err := ga16.Run(s, eval, Options{Resume: bad}); err == nil {
		t.Error("population-size mismatch accepted")
	}
	bad = roundTrip(t, snap)
	bad.Population[0].Config[0] = 999
	if _, err := ga.Run(s, eval, Options{Resume: bad}); err == nil {
		t.Error("out-of-space config accepted")
	}
	// Short objective vectors: the front machinery reads objectives by
	// index, so they must be refused, not resumed into a panic.
	if len(snap.Archive) < 2 {
		t.Fatalf("archive has %d points, want >= 2", len(snap.Archive))
	}
	bad = roundTrip(t, snap)
	bad.Archive[1].Objs = bad.Archive[1].Objs[:1]
	if _, err := ga.Run(s, eval, Options{Resume: bad}); err == nil {
		t.Error("short archive objective vector accepted")
	}
	bad = roundTrip(t, snap)
	bad.Population[0].Objs = bad.Population[0].Objs[:1]
	if _, err := ga.Run(s, eval, Options{Resume: bad}); err == nil {
		t.Error("short population objective vector accepted")
	}
	// An infeasible point carries no objectives: one that did, beside one
	// that does not, would make the crowding of the infeasible front read
	// past the second's empty vector.
	bad = roundTrip(t, snap)
	bad.Population[0].Feasible = false
	bad.Population[1].Feasible, bad.Population[1].Objs = false, nil
	if _, err := ga.Run(s, eval, Options{Resume: bad}); err == nil {
		t.Error("infeasible population point with objectives accepted")
	}
	// A negative cursor would resume into a run longer than the budget.
	bad = roundTrip(t, snap)
	bad.Step = -3
	if _, err := ga.Run(s, eval, Options{Resume: bad}); err == nil {
		t.Error("NSGA-II snapshot with a negative step accepted")
	}

	// MOSA must reject a snapshot from a longer run than the resuming
	// config allows, instead of silently returning the restored archives.
	sa := Search{Algorithm: "mosa", Seed: 2, MOSA: &MOSAConfig{Iterations: 4000, Restarts: 4}}
	var msnap *Snapshot
	mlatest := captureLatest(&msnap, 1)
	if _, err := sa.Run(s, eval, mlatest); err != nil {
		t.Fatal(err)
	}
	if msnap == nil {
		t.Fatal("no MOSA snapshot captured")
	}
	bad = roundTrip(t, msnap)
	if len(bad.Chains[0].Archive) == 0 {
		t.Fatal("MOSA chain 0 has an empty archive")
	}
	bad.Chains[0].Archive[0].Objs = bad.Chains[0].Archive[0].Objs[:1]
	if _, err := sa.Run(s, eval, Options{Resume: bad}); err == nil {
		t.Error("short MOSA chain-archive objective vector accepted")
	}
	bad = roundTrip(t, msnap)
	bad.Step = -2
	if _, err := sa.Run(s, eval, Options{Resume: bad}); err == nil {
		t.Error("MOSA snapshot with a negative step accepted")
	}
	bad = roundTrip(t, msnap)
	bad.Chains[0].Iter = -500
	if _, err := sa.Run(s, eval, Options{Resume: bad}); err == nil {
		t.Error("MOSA snapshot with a negative chain iteration accepted")
	}
	msnap.Step = 99
	if _, err := sa.Run(s, eval, Options{Resume: msnap}); err == nil {
		t.Error("MOSA accepted a snapshot past its segment count")
	}

	// Random search counts draws consumed in Next.
	random := Search{Algorithm: "random", Seed: 4, Workers: 1, Budget: 3000}
	var rsnap *Snapshot
	if _, err := random.Run(s, eval, captureLatest(&rsnap, 1)); err != nil {
		t.Fatal(err)
	}
	if rsnap == nil {
		t.Fatal("no random-search snapshot captured")
	}
	bad = roundTrip(t, rsnap)
	bad.Next = -5000
	if _, err := random.Run(s, eval, Options{Resume: bad}); err == nil {
		t.Error("random-search snapshot with a negative draw count accepted")
	}
	// A resumed run counts its boundaries from Step, so the cursor must
	// sit on one of the run's batch boundaries.
	bad = roundTrip(t, rsnap)
	bad.Step = 7
	if _, err := random.Run(s, eval, Options{Resume: bad}); err == nil {
		t.Error("random-search snapshot at step 7 of a 3-batch run accepted")
	}
	sBig := testSpace(12, 12, 12) // 1,728 points: two batches
	evalBig := &convexEvaluator{space: sBig}
	exhaustive := Search{Algorithm: "exhaustive", Workers: 1}
	var esnap *Snapshot
	if _, err := exhaustive.Run(sBig, evalBig, captureLatest(&esnap, 1)); err != nil {
		t.Fatal(err)
	}
	if esnap == nil || esnap.Step != 1 || esnap.Next != exhaustiveBatch {
		t.Fatalf("exhaustive snapshot %+v, want step 1 at %d points", esnap, exhaustiveBatch)
	}
	bad = roundTrip(t, esnap)
	bad.Next = 100
	if _, err := exhaustive.Run(sBig, evalBig, Options{Resume: bad}); err == nil {
		t.Error("exhaustive snapshot at step 1 with 100 points consumed accepted")
	}
}

// FuzzResumeSnapshot resumes each of the four searches on a small space
// from arbitrary snapshot JSON, named as the resuming algorithm's: the
// resume must fail with an error or run, never panic, and a run that
// resumes passes exactly the boundaries Step+1 through Search.Steps.
// The seeds are real snapshots of all four algorithms.
func FuzzResumeSnapshot(f *testing.F) {
	space, eval, searches := resumeFuzzSearches()
	for _, s := range searches {
		var snap *Snapshot
		if _, err := s.Run(space, eval, captureLatest(&snap, 1)); err != nil || snap == nil {
			f.Fatalf("%s: snapshot %v, err %v", s.Algorithm, snap, err)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range searches {
			var snap Snapshot
			if json.Unmarshal(data, &snap) != nil {
				return
			}
			snap.Algorithm = s.Algorithm
			var steps []int
			_, err := s.Run(space, eval, Options{
				Resume: &snap,
				Stats:  func(st Stats) { steps = append(steps, st.Step) },
			})
			if err != nil {
				continue
			}
			for i, step := range steps {
				if step != snap.Step+1+i {
					t.Fatalf("%s resumed at step %d passed boundaries %v", s.Algorithm, snap.Step, steps)
				}
			}
			if total := s.Steps(space); snap.Step+len(steps) != total {
				t.Fatalf("%s resumed at step %d passed boundaries %v of %d", s.Algorithm, snap.Step, steps, total)
			}
		}
	})
}

// resumeFuzzSearches is FuzzResumeSnapshot's space, evaluator and four
// searches.
func resumeFuzzSearches() (*Space, Evaluator, []Search) {
	space := testSpace(12, 12, 12) // 1,728 points: two exhaustive batches
	return space, &constrainedEvaluator{inner: &simplexEvaluator{space: space}}, []Search{
		{Algorithm: "nsga2", Seed: 3, Workers: 1, NSGA2: &NSGA2Config{PopulationSize: 8, Generations: 4}},
		{Algorithm: "mosa", Seed: 3, Workers: 1, MOSA: &MOSAConfig{Iterations: 1024, Restarts: 2}},
		{Algorithm: "exhaustive", Workers: 1},
		{Algorithm: "random", Seed: 3, Workers: 1, Budget: 2048},
	}
}

// TestEncodeSnapshotFileMatchesMarshal: the envelope EncodeSnapshotFile
// builds by hand equals json.Marshal of a snapshotEnvelope byte for byte,
// for every snapshot of FuzzResumeSnapshot's four searches and for the
// snapshots its committed corpus decodes to.
func TestEncodeSnapshotFileMatchesMarshal(t *testing.T) {
	check := func(label string, snap *Snapshot) {
		t.Helper()
		got, err := EncodeSnapshotFile(snap)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		want, err := json.Marshal(snapshotEnvelope{Version: SnapshotVersion, SHA256: hex.EncodeToString(sum[:]), Snapshot: raw})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: envelope\n%s\nwant\n%s", label, got, want)
		}
	}
	space, eval, searches := resumeFuzzSearches()
	for _, s := range searches {
		n := 0
		_, err := s.Run(space, eval, Options{CheckpointEvery: 1, Checkpoint: func(snap *Snapshot) error {
			n++
			check(fmt.Sprintf("%s step %d", s.Algorithm, snap.Step), snap)
			return nil
		}})
		if err != nil || n == 0 {
			t.Fatalf("%s: %d snapshots, err %v", s.Algorithm, n, err)
		}
	}
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzResumeSnapshot", "*"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no FuzzResumeSnapshot corpus: %v", err)
	}
	for _, path := range seeds {
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The corpus format: "go test fuzz v1", then []byte("<quoted>").
		_, lit, _ := strings.Cut(strings.TrimSpace(string(file)), "\n")
		quoted, ok := strings.CutPrefix(lit, "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", path, err)
		}
		var snap Snapshot
		if err := json.Unmarshal([]byte(data), &snap); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		check(path, &snap)
	}
}

// TestInfFloatsRoundTrip pins the ±Inf JSON encoding crowding distances
// rely on (front-boundary points carry +Inf crowding).
func TestInfFloatsRoundTrip(t *testing.T) {
	in := InfFloats{1.5, math.Inf(1), -2.25, math.Inf(-1), 0}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out InfFloats
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] && !(math.IsInf(in[i], 1) && math.IsInf(out[i], 1)) &&
			!(math.IsInf(in[i], -1) && math.IsInf(out[i], -1)) {
			t.Fatalf("element %d: %v != %v", i, in[i], out[i])
		}
	}
	var rejected InfFloats
	if err := json.Unmarshal([]byte(`["NaN-ish"]`), &rejected); err == nil {
		t.Fatal("unknown sentinel accepted")
	}
}

// TestSplitMixStateRoundTrip pins the single-uint64-state property the
// whole checkpoint design rests on: capturing and restoring the source
// state reproduces the exact downstream draw sequence.
func TestSplitMixStateRoundTrip(t *testing.T) {
	rng, src := newSearchRand(42)
	for i := 0; i < 100; i++ {
		rng.Intn(7)
		rng.Float64()
	}
	saved := src.state
	want := make([]int, 50)
	for i := range want {
		want[i] = rng.Intn(1000)
	}
	rng2, src2 := newSearchRand(0)
	src2.state = saved
	for i := range want {
		if got := rng2.Intn(1000); got != want[i] {
			t.Fatalf("draw %d: restored stream gives %d, original %d", i, got, want[i])
		}
	}
}
