package dse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// panicEvaluator panics on every configuration whose first gene is bad.
type panicEvaluator struct {
	inner Evaluator
	bad   int
}

func (e *panicEvaluator) NumObjectives() int { return e.inner.NumObjectives() }
func (e *panicEvaluator) Evaluate(c Config) (Objectives, error) {
	if c[0] == e.bad {
		panic(fmt.Sprintf("evaluator: bad configuration %v", c))
	}
	return e.inner.Evaluate(c)
}

// goroutinesSettle waits for the goroutine count to fall to base and
// returns the last count read. A goroutine that has signalled its exit
// to a WaitGroup still runs its last instructions, so the count may lag
// wg.Wait by a moment; a leaked goroutine never leaves.
func goroutinesSettle(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// recoverRun runs fn and returns the value it panicked with, nil if it
// returned.
func recoverRun(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// checkEvaluatorPanic checks that v is the panicEvaluator's panic: its own
// value when the search goroutine raised it, or a *WorkerPanic carrying
// that value and the stack of the pool goroutine that raised it.
func checkEvaluatorPanic(t *testing.T, label string, v any) {
	t.Helper()
	if wp, ok := v.(*WorkerPanic); ok {
		if !bytes.Contains(wp.Stack, []byte("panicEvaluator")) {
			t.Errorf("%s: worker panic stack does not show the evaluator:\n%s", label, wp.Stack)
		}
		v = wp.Value
	}
	if s, ok := v.(string); !ok || !strings.HasPrefix(s, "evaluator: bad configuration") {
		t.Errorf("%s: recovered %#v, want the evaluator's panic", label, v)
	}
}

// TestSearchLeavesNoGoroutine runs every algorithm at workers 4 to
// completion, into a cancellation, a pause (StopAfter), a failing
// checkpoint and an evaluator panic: each time the run's pool goroutines
// are gone once the call returns.
func TestSearchLeavesNoGoroutine(t *testing.T) {
	s := testSpace(12, 12, 12) // 1,728 points: two exhaustive batches
	searches := []Search{
		{Algorithm: "nsga2", Seed: 3, Workers: 4, NSGA2: &NSGA2Config{PopulationSize: 24, Generations: 4}},
		{Algorithm: "mosa", Seed: 3, Workers: 4, MOSA: &MOSAConfig{Iterations: 2400, Restarts: 4}},
		{Algorithm: "exhaustive", Workers: 4},
		{Algorithm: "random", Seed: 3, Workers: 4, Budget: 3000},
	}
	errDisk := errors.New("disk full")
	for _, search := range searches {
		if search.Steps(s) < 2 {
			t.Fatalf("%s: %d boundaries, want at least 2", search.Algorithm, search.Steps(s))
		}
		cases := []struct {
			name  string
			eval  Evaluator
			opts  func(cancel context.CancelFunc) Options
			err   error
			panic bool
		}{
			{name: "completed", opts: func(context.CancelFunc) Options { return Options{} }},
			{name: "cancelled", err: context.Canceled, opts: func(cancel context.CancelFunc) Options {
				return Options{Stats: func(Stats) { cancel() }}
			}},
			{name: "paused", err: ErrPaused, opts: func(context.CancelFunc) Options {
				return Options{StopAfter: 1, Checkpoint: func(*Snapshot) error { return nil }}
			}},
			{name: "failed checkpoint", err: errDisk, opts: func(context.CancelFunc) Options {
				return Options{CheckpointEvery: 1, Checkpoint: func(*Snapshot) error { return errDisk }}
			}},
			{name: "panicking", panic: true, eval: &panicEvaluator{inner: &convexEvaluator{space: s}, bad: 5},
				opts: func(context.CancelFunc) Options { return Options{} }},
		}
		for _, tc := range cases {
			label := search.Algorithm + " " + tc.name
			eval := tc.eval
			if eval == nil {
				eval = &convexEvaluator{space: s}
			}
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			opts := tc.opts(cancel)
			opts.Context = ctx
			var err error
			v := recoverRun(func() { _, err = search.Run(s, eval, opts) })
			cancel()
			if n := goroutinesSettle(base); n > base {
				t.Errorf("%s: %d goroutines after the run, %d before", label, n, base)
			}
			if tc.panic {
				checkEvaluatorPanic(t, label, v)
				continue
			}
			if v != nil {
				t.Fatalf("%s: panicked: %v", label, v)
			}
			if !errors.Is(err, tc.err) {
				t.Errorf("%s: error %v, want %v", label, err, tc.err)
			}
		}
	}
}

// TestSearchWorkerPanic runs NSGA-II and MOSA at workers 2 and 4 with an
// evaluator that panics on a third of the space: the panic reaches the
// caller, which recovers it, and leaves no goroutine behind.
func TestSearchWorkerPanic(t *testing.T) {
	s := testSpace(12, 4, 3)
	eval := &panicEvaluator{inner: &convexEvaluator{space: s}, bad: 5}
	for _, workers := range []int{2, 4} {
		for _, search := range []Search{
			{Algorithm: "nsga2", Seed: 1, Workers: workers, NSGA2: &NSGA2Config{PopulationSize: 32, Generations: 10}},
			{Algorithm: "mosa", Seed: 1, Workers: workers, MOSA: &MOSAConfig{Iterations: 2000, Restarts: 4}},
		} {
			label := fmt.Sprintf("%s workers %d", search.Algorithm, workers)
			base := runtime.NumGoroutine()
			v := recoverRun(func() { _, _ = search.Run(s, eval, Options{}) })
			checkEvaluatorPanic(t, label, v)
			if n := goroutinesSettle(base); n > base {
				t.Errorf("%s: %d goroutines after the run, %d before", label, n, base)
			}
		}
	}
}

// TestEvaluateBatchPanic checks that EvaluateBatch's pool hands an
// evaluator panic to the caller, as its own value or a *WorkerPanic, and
// stops its goroutines, at every worker count.
func TestEvaluateBatchPanic(t *testing.T) {
	s := testSpace(12, 4, 3)
	var all []Config
	s.Iterate(func(c Config) bool {
		all = append(all, c.Clone())
		return true
	})
	for _, workers := range []int{1, 2, 4} {
		pe := NewParallelEvaluator(&panicEvaluator{inner: &convexEvaluator{space: s}, bad: 5}, workers)
		base := runtime.NumGoroutine()
		v := recoverRun(func() { pe.EvaluateBatch(all) })
		label := fmt.Sprintf("workers %d", workers)
		checkEvaluatorPanic(t, label, v)
		if n := goroutinesSettle(base); n > base {
			t.Errorf("%s: %d goroutines after EvaluateBatch, %d before", label, n, base)
		}
	}
}

// TestForEachWorkerPanic checks that a panic on a ForEach goroutine is
// raised on the caller as a *WorkerPanic once every worker has stopped,
// and that the other workers stop claiming indices.
func TestForEachWorkerPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	v := recoverRun(func() {
		ForEach(1000, 4, func(i int) {
			if i == 10 {
				panic("boom")
			}
		})
	})
	wp, ok := v.(*WorkerPanic)
	if !ok || wp.Value != "boom" || !bytes.Contains(wp.Stack, []byte("TestForEachWorkerPanic")) {
		t.Fatalf("recovered %#v, want a *WorkerPanic of \"boom\" with the worker's stack", v)
	}
	if n := goroutinesSettle(base); n > base {
		t.Errorf("%d goroutines after ForEach, %d before", n, base)
	}
}

// flakyEvaluator panics on its first call and evaluates every later one.
type flakyEvaluator struct {
	inner   Evaluator
	entered chan struct{}
	release chan struct{}
}

func (e *flakyEvaluator) NumObjectives() int { return e.inner.NumObjectives() }
func (e *flakyEvaluator) Evaluate(c Config) (Objectives, error) {
	select {
	case e.entered <- struct{}{}:
		<-e.release
		panic("first evaluation fails")
	default:
	}
	return e.inner.Evaluate(c)
}

// TestMemoPanicAbandonsSlot checks that an evaluation that panics does not
// leave its memo slot pending: a goroutine waiting for the same
// configuration takes the evaluation over instead of blocking forever.
func TestMemoPanicAbandonsSlot(t *testing.T) {
	s := testSpace(4, 4)
	eval := &flakyEvaluator{inner: &convexEvaluator{space: s}, entered: make(chan struct{}), release: make(chan struct{})}
	pe := NewParallelEvaluator(eval, 2)
	c := Config{1, 2}
	panicked := make(chan any)
	go func() {
		panicked <- recoverRun(func() { pe.evalFor(0, c.Clone()) })
	}()
	<-eval.entered // the first evaluation holds the slot pending
	waiter := make(chan Point)
	go func() { waiter <- pe.evalFor(1, c.Clone()) }()
	// The waiter is either blocked on the pending slot or not yet there;
	// either way the slot is abandoned before it can be published.
	close(eval.release)
	if v := <-panicked; v != "first evaluation fails" {
		t.Fatalf("first evaluation recovered %#v", v)
	}
	p := <-waiter
	want, _ := eval.inner.Evaluate(c)
	if !p.Feasible || !equalObjs(p.Objs, want) {
		t.Fatalf("waiter got %+v, want objectives %v", p, want)
	}
	if evaluated, _ := pe.Stats(); evaluated != 1 {
		t.Errorf("Stats counts %d evaluations, want the one that finished", evaluated)
	}
	if again := pe.evalFor(0, c.Clone()); !equalObjs(again.Objs, want) {
		t.Errorf("a later lookup got %+v", again)
	}
}
