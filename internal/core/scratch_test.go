package core

import (
	"math"
	"testing"

	"wsndse/internal/app"
	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/platform"
	"wsndse/internal/units"
)

// scratchNetwork builds a small heterogeneous network for the reuse tests.
func scratchNetwork(t *testing.T, payload int) *Network {
	t.Helper()
	mac, err := NewGTSMac(ieee.SuperframeConfig{BeaconOrder: 3, SuperframeOrder: 2}, payload, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = &Node{
			Name:       "n",
			Platform:   platform.Shimmer(),
			App:        app.Passthrough{},
			SampleFreq: 250,
			MicroFreq:  8e6,
		}
	}
	return &Network{Nodes: nodes, MAC: mac, Theta: 0.5}
}

// TestEvaluateIntoMatchesEvaluate: the scratch API must return bit-identical
// numbers to the allocating API, and reusing one Evaluation across different
// networks must not leak state between calls.
func TestEvaluateIntoMatchesEvaluate(t *testing.T) {
	netA := scratchNetwork(t, 48)
	netB := scratchNetwork(t, 102)

	var ev Evaluation
	for _, net := range []*Network{netA, netB, netA} {
		want, err := net.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		if err := net.EvaluateInto(&ev); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(float64(ev.Energy)) != math.Float64bits(float64(want.Energy)) ||
			math.Float64bits(ev.Quality) != math.Float64bits(want.Quality) ||
			math.Float64bits(float64(ev.Delay)) != math.Float64bits(float64(want.Delay)) {
			t.Fatalf("EvaluateInto = (%v,%v,%v), Evaluate = (%v,%v,%v)",
				ev.Energy, ev.Quality, ev.Delay, want.Energy, want.Quality, want.Delay)
		}
		for i := range want.PerNode {
			if ev.PerNode[i] != want.PerNode[i] {
				t.Fatalf("node %d breakdown differs: %+v vs %+v", i, ev.PerNode[i], want.PerNode[i])
			}
			if ev.Assignment.K[i] != want.Assignment.K[i] {
				t.Fatalf("node %d K differs: %d vs %d", i, ev.Assignment.K[i], want.Assignment.K[i])
			}
		}
	}
}

// TestEvaluateIntoSteadyStateAllocs: after the first call, EvaluateInto must
// not allocate.
func TestEvaluateIntoSteadyStateAllocs(t *testing.T) {
	net := scratchNetwork(t, 48)
	var ev Evaluation
	if err := net.EvaluateInto(&ev); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := net.EvaluateInto(&ev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EvaluateInto allocates %.1f objects per call in steady state, want 0", allocs)
	}
}

// TestAssignHeteroIntoReuse: a reused scratch assignment must equal one
// solved into a fresh Assignment and shrink/grow cleanly across node
// counts.
func TestAssignHeteroIntoReuse(t *testing.T) {
	mac, err := NewGTSMac(ieee.SuperframeConfig{BeaconOrder: 3, SuperframeOrder: 2}, 48, 6)
	if err != nil {
		t.Fatal(err)
	}
	var a Assignment
	for _, phi := range [][]units.BytesPerSecond{
		{64, 86, 64, 120, 86, 143},
		{64, 86},
		{40, 40, 40, 40},
	} {
		var want Assignment
		if err := AssignHeteroInto(&want, mac, nil, phi); err != nil {
			t.Fatal(err)
		}
		if err := AssignHeteroInto(&a, mac, nil, phi); err != nil {
			t.Fatal(err)
		}
		if len(a.K) != len(want.K) || a.Used != want.Used || a.Idle != want.Idle {
			t.Fatalf("AssignHeteroInto(%v) = %+v, want %+v", phi, a, want)
		}
		for i := range want.K {
			if a.K[i] != want.K[i] || a.DeltaTx[i] != want.DeltaTx[i] {
				t.Fatalf("node %d: got (k=%d, Δ=%g), want (k=%d, Δ=%g)",
					i, a.K[i], a.DeltaTx[i], want.K[i], want.DeltaTx[i])
			}
		}
	}
}
