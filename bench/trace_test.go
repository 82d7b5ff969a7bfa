package main

import (
	"testing"
	"time"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/service"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "dse.search.traced", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "dse.step.traced", Start: 0, End: 60},
		{ID: 3, Parent: 1, Name: "dse.step.traced", Start: 60, End: 100},
		{ID: 4, Parent: 2, Name: "model.eval", Start: 5, End: 55, Count: 7, Busy: 30},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 0, 2: 30, 3: 40, 4: 50} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
}

// fold takes the union of overlapping calls from several workers and
// splits it at step boundaries.
func TestFold(t *testing.T) {
	r := newEvalRecorder(time.Now(), 0)
	r.logs = []*evalLog{
		{iv: []int64{10, 20, 40, 50}},
		{iv: []int64{15, 30, 70, 75}},
	}
	steps := r.fold([]int64{0, 35, 100})
	want := []foldedStep{{count: 2, busy: 20, first: 10, last: 30}, {count: 2, busy: 15, first: 40, last: 75}}
	for k := range want {
		if steps[k] != want[k] {
			t.Errorf("step %d = %+v, want %+v", k, steps[k], want[k])
		}
	}
}

// The recording evaluator must leave the search bit-identical at two
// workers — so each worker gets its own fork — and capture the misses
// step by step. Run with -race, this is the check that the wrapper hides
// no shared scratch.
func TestRecordingEvalKeepsSearchIdentical(t *testing.T) {
	sc, _ := scenario.Lookup("ecg-ward")
	p, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	spec := service.Spec{Scenario: "ecg-ward", Algorithm: service.AlgoNSGA2, Seed: 5, Workers: 2,
		NSGA2: &dse.NSGA2Config{PopulationSize: 16, Generations: 6}}
	plain, err := search(p.Space(), compiled.Evaluator(), spec, dse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := newEvalRecorder(time.Now(), 1<<20)
	steps := 0
	opts := dse.Options{Stats: func(dse.Stats) { steps++; rec.step.Add(1) }}
	traced, err := search(p.Space(), rec.wrap(compiled.Evaluator()), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if frontHash(resultFront(spec, plain)) != frontHash(resultFront(spec, traced)) {
		t.Fatal("recording changed the front")
	}
	if len(rec.logs) != 3 {
		t.Errorf("%d evaluation logs, want the root plus one fork per worker", len(rec.logs))
	}
	c := rec.capture(compiled, spec.Workers)
	if len(c.points) != traced.Evaluated {
		t.Errorf("captured %d evaluations, the search made %d", len(c.points), traced.Evaluated)
	}
	// The initial population shares the first step with generation 1.
	if len(c.batches) != steps {
		t.Errorf("%d captured batches, want one per generation (%d)", len(c.batches), steps)
	}
}
