package main

import (
	"math"
	"strings"
	"testing"

	"wsndse/internal/service"
)

func sampleFront() service.FrontResponse {
	return service.FrontResponse{
		JobID: "j7", Status: service.StatusDone, Scenario: "ecg-ward", Algorithm: "nsga2", Seed: 3,
		Evaluated: 40, Infeasible: 12,
		Front: []service.FrontPoint{
			{Config: []int{0, 1, 2}, Objs: []float64{1.5e-3, 0.25, 0.1}},
			{Config: []int{1, 1, 0}, Objs: []float64{2e-3, 0.125, 0.05}},
		},
	}
}

// The digest hashes what the spec determines, never what the server
// assigns, and sees every bit of every objective.
func TestCanonicalFront(t *testing.T) {
	a := sampleFront()
	b := sampleFront()
	b.JobID = "j9123"
	if frontHash(a) != frontHash(b) {
		t.Error("the job ID changed the front hash")
	}
	b.Front[1].Objs[2] = math.Nextafter(b.Front[1].Objs[2], 1)
	if frontHash(a) == frontHash(b) {
		t.Error("a one-ulp objective change kept the front hash")
	}
	c := sampleFront()
	c.Front[0].Config[2] = 3
	if frontHash(a) == frontHash(c) {
		t.Error("a gene change kept the front hash")
	}
	d := sampleFront()
	d.Evaluated++
	if frontHash(a) == frontHash(d) {
		t.Error("the evaluation count is not part of the front hash")
	}
	if got := string(canonical(a)); strings.Contains(got, "j7") || !strings.HasPrefix(got, `{"scenario":"ecg-ward"`) {
		t.Errorf("canonical form %s", got)
	}
}

func TestChainDigest(t *testing.T) {
	x, y := frontHash(sampleFront()), frontHash(service.FrontResponse{})
	if chainDigest([][32]byte{x, y}) == chainDigest([][32]byte{y, x}) {
		t.Error("the digest ignores job order")
	}
	if chainDigest(nil) != strings.Repeat("0", 64) {
		t.Errorf("empty chain %s, want the zero seed", chainDigest(nil))
	}
	if chainDigest([][32]byte{x}) == chainDigest([][32]byte{x, x}) {
		t.Error("the digest ignores a repeated job")
	}
}

func TestCheckFront(t *testing.T) {
	spec := service.Spec{Scenario: "ecg-ward", Algorithm: "nsga2", Seed: 3}
	if err := checkFront(spec, sampleFront()); err != nil {
		t.Fatalf("valid front rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(*service.FrontResponse)
		want   string
	}{
		{"not done", func(f *service.FrontResponse) { f.Status = service.StatusCancelled }, "status"},
		{"wrong seed", func(f *service.FrontResponse) { f.Seed = 4 }, "spec asked"},
		{"dominated point", func(f *service.FrontResponse) { f.Front[1].Objs = []float64{2e-3, 0.5, 0.2} }, "dominated"},
		{"non-finite objective", func(f *service.FrontResponse) { f.Front[0].Objs[1] = math.NaN() }, "non-finite"},
		{"missing objective", func(f *service.FrontResponse) { f.Front[0].Objs = f.Front[0].Objs[:2] }, "objectives"},
		{"more points than feasible evaluations", func(f *service.FrontResponse) { f.Infeasible = 39 }, "feasible evaluations"},
		{"empty front with feasible evaluations", func(f *service.FrontResponse) { f.Front = nil }, "empty front"},
	} {
		f := sampleFront()
		c.mutate(&f)
		err := checkFront(spec, f)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	f := sampleFront()
	f.Front, f.Infeasible = nil, f.Evaluated
	if err := checkFront(spec, f); err != nil {
		t.Errorf("an all-infeasible tiny search may end with an empty front: %v", err)
	}
}
