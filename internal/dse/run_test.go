package dse

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
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
		name string
		run  func(opts Options) (*Result, error)
	}{
		{"nsga2", func(opts Options) (*Result, error) {
			return NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 16, Generations: 12, Seed: 9, Workers: 2}, opts)
		}},
		{"mosa", func(opts Options) (*Result, error) {
			return MOSAOpts(s, eval, MOSAConfig{Iterations: 4000, Restarts: 4, Seed: 5, Workers: 2}, opts)
		}},
		{"exhaustive", func(opts Options) (*Result, error) {
			return ExhaustiveOpts(sBig, evalBig, 1000000, 2, opts)
		}},
		{"random", func(opts Options) (*Result, error) {
			return RandomSearchOpts(s, eval, 3000, 7, 2, opts)
		}},
	}
	for _, alg := range algorithms {
		t.Run(alg.name, func(t *testing.T) {
			want, err := alg.run(Options{})
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
			partial, err := alg.run(opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run returned %v, want context.Canceled", err)
			}
			if partial == nil {
				t.Fatal("interrupted run returned no partial result")
			}
			if snap == nil {
				t.Fatal("no checkpoint was taken")
			}
			if snap.Algorithm != alg.name {
				t.Fatalf("snapshot algorithm %q, want %q", snap.Algorithm, alg.name)
			}

			got, err := alg.run(Options{Resume: roundTrip(t, snap)})
			if err != nil {
				t.Fatal(err)
			}
			sameFront(t, want, got, alg.name+" resume")
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
	if _, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 8, Generations: 10, Seed: 3}, opts); err != nil {
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
// not perturb results: the option-free entry points and Opts with zero
// Options are bit-identical, counts included.
func TestOptionsZeroValueIdentical(t *testing.T) {
	s := testSpace(10, 4, 3)
	eval := &constrainedEvaluator{inner: &convexEvaluator{space: s}}
	a, err := NSGA2(s, eval, NSGA2Config{PopulationSize: 16, Generations: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 16, Generations: 10, Seed: 4},
		Options{Context: context.Background(), Progress: func(Progress) {}})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, a, b, "nsga2 options plumbing")

	am, err := MOSA(s, eval, MOSAConfig{Iterations: 2000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := MOSAOpts(s, eval, MOSAConfig{Iterations: 2000, Seed: 4},
		Options{Context: context.Background(), Progress: func(Progress) {}})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, am, bm, "mosa options plumbing")
}

// TestCancelledContextReturnsPartial checks immediate-cancellation
// semantics: the search notices at its first boundary and hands back what
// it has, tagged with the context error.
func TestCancelledContextReturnsPartial(t *testing.T) {
	s := testSpace(8, 3)
	eval := &convexEvaluator{space: s}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 8, Generations: 50, Seed: 2}, Options{Context: ctx})
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
	res, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 8, Generations: 50, Seed: 2},
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
// objective vectors.
func TestSnapshotResumeValidation(t *testing.T) {
	s := testSpace(8, 3)
	eval := &convexEvaluator{space: s}
	var snap *Snapshot
	latest := captureLatest(&snap, 2)
	if _, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 8, Generations: 6, Seed: 1}, latest); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot captured")
	}

	if _, err := MOSAOpts(s, eval, MOSAConfig{}, Options{Resume: snap}); err == nil {
		t.Error("mosa accepted an nsga2 snapshot")
	}
	bad := roundTrip(t, snap)
	bad.Version = 99
	if _, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 8, Generations: 6, Seed: 1}, Options{Resume: bad}); err == nil {
		t.Error("version mismatch accepted")
	}
	bad = roundTrip(t, snap)
	if _, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 16, Generations: 6, Seed: 1}, Options{Resume: bad}); err == nil {
		t.Error("population-size mismatch accepted")
	}
	bad = roundTrip(t, snap)
	bad.Population[0].Config[0] = 999
	if _, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 8, Generations: 6, Seed: 1}, Options{Resume: bad}); err == nil {
		t.Error("out-of-space config accepted")
	}
	// Short objective vectors: the front machinery reads objectives by
	// index, so they must be refused, not resumed into a panic.
	if len(snap.Archive) < 2 {
		t.Fatalf("archive has %d points, want >= 2", len(snap.Archive))
	}
	bad = roundTrip(t, snap)
	bad.Archive[1].Objs = bad.Archive[1].Objs[:1]
	if _, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 8, Generations: 6, Seed: 1}, Options{Resume: bad}); err == nil {
		t.Error("short archive objective vector accepted")
	}
	bad = roundTrip(t, snap)
	bad.Population[0].Objs = bad.Population[0].Objs[:1]
	if _, err := NSGA2Opts(s, eval, NSGA2Config{PopulationSize: 8, Generations: 6, Seed: 1}, Options{Resume: bad}); err == nil {
		t.Error("short population objective vector accepted")
	}

	// MOSA must reject a snapshot from a longer run than the resuming
	// config allows, instead of silently returning the restored archives.
	var msnap *Snapshot
	mlatest := captureLatest(&msnap, 1)
	if _, err := MOSAOpts(s, eval, MOSAConfig{Iterations: 4000, Restarts: 4, Seed: 2}, mlatest); err != nil {
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
	if _, err := MOSAOpts(s, eval, MOSAConfig{Iterations: 4000, Restarts: 4, Seed: 2}, Options{Resume: bad}); err == nil {
		t.Error("short MOSA chain-archive objective vector accepted")
	}
	msnap.Step = 99
	if _, err := MOSAOpts(s, eval, MOSAConfig{Iterations: 4000, Restarts: 4, Seed: 2}, Options{Resume: msnap}); err == nil {
		t.Error("MOSA accepted a snapshot past its segment count")
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
