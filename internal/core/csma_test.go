package core

import (
	"math"
	"testing"

	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/units"
)

func testCSMA(t *testing.T, nodes, cw int) *CSMAMac {
	t.Helper()
	m, err := NewCSMAMac(ieee.SuperframeConfig{BeaconOrder: 2, SuperframeOrder: 2}, 80, nodes, cw)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCSMAValidation(t *testing.T) {
	sf := ieee.SuperframeConfig{BeaconOrder: 2, SuperframeOrder: 2}
	if _, err := NewCSMAMac(sf, 0, 3, 8); err == nil {
		t.Error("payload 0: want error")
	}
	if _, err := NewCSMAMac(sf, 80, 0, 8); err == nil {
		t.Error("no nodes: want error")
	}
	if _, err := NewCSMAMac(sf, 80, 3, 1); err == nil {
		t.Error("CW=1: want error")
	}
	if _, err := NewCSMAMac(ieee.SuperframeConfig{BeaconOrder: 1, SuperframeOrder: 3}, 80, 3, 8); err == nil {
		t.Error("bad superframe: want error")
	}
	// Unlike GTS, CSMA handles more than 7 nodes.
	if _, err := NewCSMAMac(sf, 80, 20, 8); err != nil {
		t.Errorf("20 contenders should be allowed: %v", err)
	}
}

func TestCSMASuccessProbability(t *testing.T) {
	solo := testCSMA(t, 1, 8)
	if got := solo.successProb(); got != 1 {
		t.Errorf("single node success = %g, want 1", got)
	}
	if got := solo.ExpectedTransmissions(); got != 1 {
		t.Errorf("single node attempts = %g, want 1", got)
	}
	// More contenders → lower success probability.
	var prev float64 = 2
	for _, n := range []int{2, 4, 8, 16} {
		m := testCSMA(t, n, 8)
		q := m.successProb()
		if q <= 0 || q >= 1 {
			t.Errorf("N=%d: q=%g out of (0,1)", n, q)
		}
		if q >= prev {
			t.Errorf("N=%d: success probability should decrease with contention", n)
		}
		prev = q
	}
	// Wider window → less contention → higher success.
	narrow, wide := testCSMA(t, 6, 4), testCSMA(t, 6, 32)
	if wide.successProb() <= narrow.successProb() {
		t.Error("wider contention window should raise success probability")
	}
}

func TestCSMAOverheadIncludesRetransmissions(t *testing.T) {
	m := testCSMA(t, 6, 8)
	phi := units.BytesPerSecond(86)
	// The data overhead must exceed the pure 13 B/packet framing
	// because collided frames are retransmitted.
	framing := 13.0 * 86 / 80
	if got := float64(m.DataOverhead(phi)); got <= framing {
		t.Errorf("Ω = %g should exceed framing-only %g", got, framing)
	}
	// The GTS MAC has no retransmissions, so its TxTime for the same
	// stream is smaller.
	g := testMAC(t, 2, 2, 80, 6)
	if m.TxTime(phi) <= g.TxTime(phi) {
		t.Error("contention should cost more channel time than TDMA")
	}
}

func TestCSMACapacityDecreasesWithNodes(t *testing.T) {
	var prev float64 = math.Inf(1)
	for _, n := range []int{1, 2, 4, 8, 16} {
		m := testCSMA(t, n, 8)
		c := m.Capacity()
		if c <= 0 || c >= 1 {
			t.Errorf("N=%d: capacity %g out of (0,1)", n, c)
		}
		if c >= prev {
			t.Errorf("N=%d: capacity should shrink with contention", n)
		}
		prev = c
	}
}

func TestCSMAAssignAndEvaluate(t *testing.T) {
	m := testCSMA(t, 3, 8)
	phi := []units.BytesPerSecond{64, 86, 120}
	var a Assignment
	if err := AssignHeteroInto(&a, m, nil, phi); err != nil {
		t.Fatal(err)
	}
	if a.Used <= 0 || a.Used > a.Capacity {
		t.Errorf("assignment used %g of %g", a.Used, a.Capacity)
	}
	// The statistical quantum is much finer than a GTS slot.
	g := testMAC(t, 2, 2, 80, 3)
	if m.Quantum() >= g.Quantum() {
		t.Error("CSMA quantum should be finer than a GTS slot")
	}
	// Delay: positive, larger with more contention.
	d3 := float64(m.WorstCaseDelay(a.DeltaTx, 0))
	if d3 <= 0 {
		t.Errorf("delay = %g", d3)
	}
	m16 := testCSMA(t, 16, 8)
	d16 := float64(m16.WorstCaseDelay(a.DeltaTx, 0))
	if d16 <= d3 {
		t.Errorf("delay with 16 contenders (%g) should exceed 3 (%g)", d16, d3)
	}
	if got := m.WorstCaseDelay(a.DeltaTx, 9); !math.IsNaN(float64(got)) {
		t.Error("out-of-range index should be NaN")
	}
}

func TestCSMANetworkEndToEnd(t *testing.T) {
	// The abstract model runs unchanged on the contention MAC — the
	// generality claim of §3.2.
	nodes := []*Node{
		testNode(t, "a", "cs", 0.23, 8e6),
		testNode(t, "b", "cs", 0.29, 8e6),
		testNode(t, "c", "dwt", 0.23, 8e6),
	}
	mac := testCSMA(t, 3, 8)
	net := &Network{Nodes: nodes, MAC: mac, Theta: 0.5}
	ev, err := net.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Energy <= 0 || ev.Delay <= 0 || ev.Quality <= 0 {
		t.Errorf("metrics: %+v", ev)
	}
	// Contention must cost more radio energy than guaranteed slots for
	// the same traffic (retransmissions + listening).
	gnet := &Network{Nodes: nodes, MAC: testMAC(t, 2, 2, 80, 3), Theta: 0.5}
	gev, err := gnet.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ev.PerNode {
		if ev.PerNode[i].Radio <= gev.PerNode[i].Radio {
			t.Errorf("node %d: CSMA radio %v should exceed GTS %v",
				i, ev.PerNode[i].Radio, gev.PerNode[i].Radio)
		}
	}
	if got := mac.String(); got == "" {
		t.Error("empty String()")
	}
}
