package core

import (
	"math"
	"testing"

	"wsndse/internal/units"
)

// heteroNet builds a 3-node network where the last node carries its own
// payload profile (a short-frame telemetry view of the shared MAC).
func heteroNet(t *testing.T, nodePayload int) *Network {
	t.Helper()
	nodes := []*Node{
		testNode(t, "dwt-0", "dwt", 0.23, 8e6),
		testNode(t, "cs-1", "cs", 0.23, 8e6),
		testNode(t, "cs-2", "cs", 0.29, 4e6),
	}
	base := testMAC(t, 3, 2, 48, 3)
	views := []MAC{nil, nil, nil}
	if nodePayload > 0 {
		views[2] = testMAC(t, 3, 2, nodePayload, 3)
	}
	return &Network{Nodes: nodes, MAC: base, NodeMACs: views, Theta: 0.5}
}

func TestAssignHeteroMatchesAssignWithoutViews(t *testing.T) {
	mac := testMAC(t, 3, 2, 48, 3)
	phi := []units.BytesPerSecond{64, 86, 120}
	var a Assignment
	if err := AssignHeteroInto(&a, mac, nil, phi); err != nil {
		t.Fatal(err)
	}
	var b Assignment
	if err := AssignHeteroInto(&b, mac, []MAC{nil, nil, nil}, phi); err != nil {
		t.Fatal(err)
	}
	for i := range a.K {
		if a.K[i] != b.K[i] {
			t.Errorf("node %d: K %d (homogeneous) vs %d (nil views)", i, a.K[i], b.K[i])
		}
	}
	if a.Used != b.Used || a.Capacity != b.Capacity {
		t.Errorf("accounting differs: %+v vs %+v", a, b)
	}
}

func TestAssignHeteroPerNodePayload(t *testing.T) {
	base := testMAC(t, 3, 2, 48, 3)
	short := testMAC(t, 3, 2, 16, 3)
	// At 300 B/s the 16-byte frames pay 13+6 overhead bytes per 16
	// payload bytes plus a per-packet service cost ~3× as often, so the
	// short-frame view demands strictly more channel time.
	phi := []units.BytesPerSecond{300, 300, 300}
	var hom Assignment
	if err := AssignHeteroInto(&hom, base, nil, phi); err != nil {
		t.Fatal(err)
	}
	var het Assignment
	if err := AssignHeteroInto(&het, base, []MAC{nil, nil, short}, phi); err != nil {
		t.Fatal(err)
	}
	if het.K[2] <= hom.K[2] {
		t.Errorf("16B-frame node got %d quanta, 48B one %d — expected more", het.K[2], hom.K[2])
	}
	if het.K[0] != hom.K[0] || het.K[1] != hom.K[1] {
		t.Errorf("view on node 2 changed other nodes: %v vs %v", het.K, hom.K)
	}
}

func TestAssignHeteroRejectsMismatchedViews(t *testing.T) {
	base := testMAC(t, 3, 2, 48, 2)
	phi := []units.BytesPerSecond{64, 64}
	if err := AssignHeteroInto(&Assignment{}, base, []MAC{nil}, phi); err == nil {
		t.Error("length-mismatched views accepted")
	}
	// A view with a different superframe has a different quantum δ —
	// nodes would disagree about the channel they share.
	other := testMAC(t, 4, 2, 48, 2)
	if err := AssignHeteroInto(&Assignment{}, base, []MAC{nil, other}, phi); err == nil {
		t.Error("view with mismatched quantum accepted")
	}
}

func TestNetworkEvaluateHetero(t *testing.T) {
	net := heteroNet(t, 16)
	ev, err := net.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := heteroNet(t, 0).Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// The short-frame node carries more per-frame overhead: more radio
	// energy and a different (but still finite) delay bound.
	if ev.PerNode[2].Radio <= ref.PerNode[2].Radio {
		t.Errorf("16B-frame node radio %v not above 48B baseline %v",
			ev.PerNode[2].Radio, ref.PerNode[2].Radio)
	}
	if math.Abs(float64(ev.PerNode[0].Radio-ref.PerNode[0].Radio)) > 1e-15 {
		t.Errorf("node 0 radio changed by node 2's view: %v vs %v",
			ev.PerNode[0].Radio, ref.PerNode[0].Radio)
	}
	for i, d := range ev.PerNodeDelay {
		if math.IsNaN(d) || d <= 0 {
			t.Errorf("node %d delay bound %g not positive", i, d)
		}
	}
}

func TestNetworkEvaluateRejectsBadViewCount(t *testing.T) {
	net := heteroNet(t, 0)
	net.NodeMACs = net.NodeMACs[:2]
	if _, err := net.Evaluate(); err == nil {
		t.Error("mismatched NodeMACs length accepted")
	}
	if err := net.Validate(); err == nil {
		t.Error("Validate accepted mismatched NodeMACs length")
	}
}

// TestHeteroCapacityStillEnforced drives a heterogeneous star past the GTS
// budget and expects the constraint violation, not an error.
func TestHeteroCapacityStillEnforced(t *testing.T) {
	base := testMAC(t, 1, 0, 102, 3)
	short := testMAC(t, 1, 0, 16, 3)
	// At SO = 0 a slot is 0.96 ms; short frames need multiple slots per
	// service, so three heavy streams cannot fit 7 slots.
	phi := []units.BytesPerSecond{300, 300, 300}
	err := AssignHeteroInto(&Assignment{}, base, []MAC{short, short, short}, phi)
	if err == nil {
		t.Fatal("over-capacity heterogeneous assignment accepted")
	}
	if !IsInfeasible(err) {
		t.Fatalf("want InfeasibleError, got %v", err)
	}
}
