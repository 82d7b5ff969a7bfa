package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"wsndse/internal/app"
	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/numeric"
	"wsndse/internal/platform"
	"wsndse/internal/units"
)

// Calibration-free quality polynomials for tests.
var (
	dwtPoly = numeric.Poly{30, -120, 140, 0, 0, 0}
	csPoly  = numeric.Poly{60, -220, 230, 0, 0, 0}
)

func testMAC(t *testing.T, bo, so, payload, nodes int) *GTSMac {
	t.Helper()
	m, err := NewGTSMac(ieee.SuperframeConfig{BeaconOrder: bo, SuperframeOrder: so}, payload, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testNode(t *testing.T, name, kind string, cr float64, fuc units.Hertz) *Node {
	t.Helper()
	var profile app.Profile
	var poly numeric.Poly
	switch kind {
	case "dwt":
		profile, poly = app.DWTProfile(), dwtPoly
	case "cs":
		profile, poly = app.CSProfile(), csPoly
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	a, err := app.NewCompression(profile, cr, poly)
	if err != nil {
		t.Fatal(err)
	}
	return &Node{
		Name:       name,
		Platform:   platform.Shimmer(),
		App:        a,
		SampleFreq: 250,
		MicroFreq:  fuc,
	}
}

func testNetwork(t *testing.T, n int, cr float64, fuc units.Hertz) *Network {
	t.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		kind := "dwt"
		if i >= n/2 {
			kind = "cs"
		}
		nodes[i] = testNode(t, fmt.Sprintf("node%d", i), kind, cr, fuc)
	}
	mac := testMAC(t, 3, 2, 48, n)
	return &Network{Nodes: nodes, MAC: mac, Theta: 0.5}
}

func TestInfeasibleError(t *testing.T) {
	err := Infeasible("reason %d", 42)
	if !IsInfeasible(err) {
		t.Error("Infeasible not detected")
	}
	if IsInfeasible(errors.New("plain")) {
		t.Error("plain error misdetected")
	}
	if IsInfeasible(nil) {
		t.Error("nil misdetected")
	}
	wrapped := fmt.Errorf("context: %w", err)
	if !IsInfeasible(wrapped) {
		t.Error("wrapped infeasible not detected")
	}
}

// TestInfeasibleMessages pins the text of the model's four constraint
// violations byte for byte (wsn-model prints them) and checks that each
// carries its code through errors.As.
func TestInfeasibleMessages(t *testing.T) {
	overloaded := make([]units.BytesPerSecond, 6)
	for i := range overloaded {
		overloaded[i] = 375
	}
	tinyRAM := testNode(t, "ecg", "cs", 0.23, 8e6)
	tinyRAM.Platform.Memory.SizeBytes = 512
	cases := []struct {
		name string
		run  func() error
		code InfeasibleCode
		want string
	}{
		{"gts slots", func() error {
			_, err := NewGTSMac(ieee.SuperframeConfig{BeaconOrder: 2, SuperframeOrder: 2}, 80, 8)
			return err
		}, CodeGTSSlots, "8 nodes exceed the 7 guaranteed time slots per superframe"},
		{"capacity", func() error {
			return AssignHeteroInto(&Assignment{}, testMAC(t, 6, 0, 32, 6), nil, overloaded)
		}, CodeCapacity, `transmission demand 0.205078 s/s exceeds MAC "ieee802.15.4-gts" capacity 0.006836 s/s (N=6 nodes)`},
		{"duty cycle", func() error {
			_, err := testNode(t, "ecg", "dwt", 0.23, 1e6).Energy(testMAC(t, 2, 2, 80, 1))
			return err
		}, CodeDutyCycle, `node "ecg": application "dwt" duty cycle 226.6% exceeds 100% at f_µC=1MHz`},
		{"ram", func() error {
			_, err := tinyRAM.Energy(testMAC(t, 2, 2, 80, 1))
			return err
		}, CodeRAM, `node "ecg": application working set 1536 B exceeds 512 B RAM`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := fmt.Errorf("wrapped: %w", tc.run())
			var ie *InfeasibleError
			if !errors.As(err, &ie) {
				t.Fatalf("%v is not an InfeasibleError", err)
			}
			if ie.Code != tc.code {
				t.Errorf("code %d, want %d", ie.Code, tc.code)
			}
			if got, want := ie.Error(), "core: infeasible configuration: "+tc.want; got != want {
				t.Errorf("message\n got %q\nwant %q", got, want)
			}
		})
	}
}

func TestNodeRates(t *testing.T) {
	n := testNode(t, "a", "dwt", 0.23, 8e6)
	// φ_in = 250 Hz × 1.5 B = 375 B/s, the paper's constant.
	if got := float64(n.InputRate()); got != 375 {
		t.Errorf("InputRate = %g, want 375", got)
	}
	if got, want := float64(n.OutputRate()), 375*0.23; math.Abs(got-want) > 1e-12 {
		t.Errorf("OutputRate = %g, want %g", got, want)
	}
}

func TestNodeEnergyBreakdown(t *testing.T) {
	n := testNode(t, "a", "cs", 0.23, 8e6)
	mac := testMAC(t, 2, 2, 80, 1)
	eb, err := n.Energy(mac)
	if err != nil {
		t.Fatal(err)
	}
	if eb.Sensor <= 0 || eb.Micro <= 0 || eb.Memory <= 0 || eb.Radio <= 0 {
		t.Errorf("all terms must be positive: %+v", eb)
	}
	sum := eb.Sensor + eb.Micro + eb.Memory + eb.Radio
	if math.Abs(float64(sum-eb.Total)) > 1e-18 {
		t.Errorf("Total %v ≠ sum of terms %v", eb.Total, sum)
	}
	// Node power must be in the single-digit mW range of Figure 3.
	if eb.Total < 1e-3 || eb.Total > 20e-3 {
		t.Errorf("node power %v outside the plausible range", eb.Total)
	}
}

func TestDWTInfeasibleAt1MHz(t *testing.T) {
	// The paper: "the model also predicts that the DWT cannot complete
	// its execution with f_µC = 1 MHz because its duty cycle exceeds
	// 100%".
	n := testNode(t, "a", "dwt", 0.23, 1e6)
	mac := testMAC(t, 2, 2, 80, 1)
	_, err := n.Energy(mac)
	if !IsInfeasible(err) {
		t.Fatalf("DWT at 1 MHz: err = %v, want infeasible", err)
	}
	// CS at 1 MHz is fine (duty 0.3888).
	c := testNode(t, "b", "cs", 0.23, 1e6)
	if _, err := c.Energy(mac); err != nil {
		t.Errorf("CS at 1 MHz should be feasible: %v", err)
	}
}

func TestEnergyMonotoneInCR(t *testing.T) {
	// More output data (higher CR) costs more radio energy, everything
	// else equal.
	mac := testMAC(t, 2, 2, 80, 1)
	var prev float64 = -1
	for _, cr := range []float64{0.17, 0.23, 0.29, 0.35} {
		n := testNode(t, "a", "cs", cr, 8e6)
		eb, err := n.Energy(mac)
		if err != nil {
			t.Fatal(err)
		}
		if float64(eb.Radio) <= prev {
			t.Errorf("radio energy at CR=%g (%v) not increasing", cr, eb.Radio)
		}
		prev = float64(eb.Radio)
	}
}

func TestEnergyMonotoneInMicroFreq(t *testing.T) {
	// Duty·(α1·f+α0) with duty = C/f: µC energy = C·α1 + C·α0/f, which
	// *decreases* with f (same cycles, less fixed-overhead time). The
	// model must reproduce that shape.
	mac := testMAC(t, 2, 2, 80, 1)
	lo := testNode(t, "a", "cs", 0.23, 2e6)
	hi := testNode(t, "b", "cs", 0.23, 16e6)
	elo, err := lo.Energy(mac)
	if err != nil {
		t.Fatal(err)
	}
	ehi, err := hi.Energy(mac)
	if err != nil {
		t.Fatal(err)
	}
	if ehi.Micro >= elo.Micro {
		t.Errorf("µC energy at 16 MHz (%v) should undercut 2 MHz (%v) for fixed cycle budgets",
			ehi.Micro, elo.Micro)
	}
}

func TestAssignSatisfiesEquations(t *testing.T) {
	mac := testMAC(t, 3, 2, 48, 6)
	phi := []units.BytesPerSecond{64, 86, 64, 120, 86, 143}
	var a Assignment
	if err := AssignHeteroInto(&a, mac, nil, phi); err != nil {
		t.Fatal(err)
	}
	delta := mac.Quantum()
	for i, phiOut := range phi {
		// Eq. 1: Δ_tx = k·δ ≥ T_tx(φ_out + Ω).
		if got := float64(a.K[i]) * delta; math.Abs(got-a.DeltaTx[i]) > 1e-15 {
			t.Errorf("node %d: DeltaTx %g ≠ k·δ %g", i, a.DeltaTx[i], got)
		}
		if a.DeltaTx[i] < mac.TxTime(phiOut)-1e-12 {
			t.Errorf("node %d: Δtx %g below demand %g", i, a.DeltaTx[i], mac.TxTime(phiOut))
		}
		// Minimality: one fewer slot must not satisfy the demand.
		if a.K[i] > 1 {
			if float64(a.K[i]-1)*delta >= mac.TxTime(phiOut) {
				t.Errorf("node %d: k=%d not minimal", i, a.K[i])
			}
		}
	}
	// Eq. 2 accounting: Used + ControlTime + Idle = 1.
	if got := a.Used + a.ControlTime + a.Idle; math.Abs(got-1) > 1e-12 {
		t.Errorf("Eq.2 balance = %g, want 1", got)
	}
	if a.Used > a.Capacity {
		t.Errorf("capacity violated: %g > %g", a.Used, a.Capacity)
	}
}

func TestAssignInfeasibleWhenOverloaded(t *testing.T) {
	// A short superframe with heavy streams cannot fit 6 nodes.
	mac := testMAC(t, 6, 0, 32, 6) // BI = 983ms, SD = 15.36ms → tiny capacity
	phi := make([]units.BytesPerSecond, 6)
	for i := range phi {
		phi[i] = 375 // uncompressed streams
	}
	err := AssignHeteroInto(&Assignment{}, mac, nil, phi)
	if !IsInfeasible(err) {
		t.Fatalf("err = %v, want infeasible", err)
	}
}

func TestAssignEdgeCases(t *testing.T) {
	mac := testMAC(t, 2, 2, 80, 2)
	if err := AssignHeteroInto(&Assignment{}, mac, nil, nil); err == nil {
		t.Error("no nodes: want error")
	}
	if err := AssignHeteroInto(&Assignment{}, mac, nil, []units.BytesPerSecond{-5}); err == nil {
		t.Error("negative rate: want error")
	}
	// A zero-rate node consumes no slots.
	var a Assignment
	if err := AssignHeteroInto(&a, mac, nil, []units.BytesPerSecond{0, 86}); err != nil {
		t.Fatal(err)
	}
	if a.K[0] != 0 {
		t.Errorf("zero-rate node got %d slots", a.K[0])
	}
	if a.K[1] < 1 {
		t.Error("non-zero-rate node needs at least one slot")
	}
}

func TestWorstCaseDelayProperties(t *testing.T) {
	mac := testMAC(t, 3, 2, 48, 6)
	phi := []units.BytesPerSecond{64, 86, 64, 120, 86, 143}
	var a Assignment
	if err := AssignHeteroInto(&a, mac, nil, phi); err != nil {
		t.Fatal(err)
	}
	bi := float64(mac.Superframe.BeaconInterval())
	for n := range phi {
		d := float64(mac.WorstCaseDelay(a.DeltaTx, n))
		if d <= 0 {
			t.Errorf("node %d: delay bound %g must be positive", n, d)
		}
		// The bound is at most a couple of beacon intervals for a
		// single-superframe-capacity network.
		if d > 3*bi {
			t.Errorf("node %d: delay bound %g implausibly large (BI=%g)", n, d, bi)
		}
	}
	// A node competing with heavier traffic waits longer: give node 0
	// the largest share and compare bounds of the others.
	if got := mac.WorstCaseDelay(a.DeltaTx, -1); !math.IsNaN(float64(got)) {
		t.Error("out-of-range node index should yield NaN")
	}
}

func TestWorstCaseDelayScalesWithBeaconInterval(t *testing.T) {
	// Under a per-superframe repeating schedule the bound is governed by
	// the beacon interval: doubling BO (at fixed SO gap) roughly doubles
	// the worst-case delay. This is the energy/delay lever of the DSE:
	// long beacon intervals save beacon energy but cost latency.
	phi := []units.BytesPerSecond{64, 86, 86}
	short := testMAC(t, 4, 3, 102, 3)
	long := testMAC(t, 6, 5, 102, 3)
	var as Assignment
	if err := AssignHeteroInto(&as, short, nil, phi); err != nil {
		t.Fatal(err)
	}
	var al Assignment
	if err := AssignHeteroInto(&al, long, nil, phi); err != nil {
		t.Fatal(err)
	}
	ds := float64(short.WorstCaseDelay(as.DeltaTx, 0))
	dl := float64(long.WorstCaseDelay(al.DeltaTx, 0))
	if dl <= ds {
		t.Errorf("longer beacon interval should raise the bound: %g vs %g", dl, ds)
	}
	ratio := dl / ds
	if ratio < 2 || ratio > 6 {
		t.Errorf("bound ratio %g for 4× BI, want roughly proportional", ratio)
	}
	// The bound always clears one beacon interval: data generated right
	// after service waits for the next superframe.
	if ds < float64(short.Superframe.BeaconInterval()) {
		t.Errorf("bound %g below one beacon interval", ds)
	}
}

func TestCombineMatchesEq8(t *testing.T) {
	vals := []float64{2, 4, 6}
	mean := 4.0
	sd := numeric.SampleStdDev(vals)
	if got := Combine(vals, 0); got != mean {
		t.Errorf("theta=0: %g, want mean %g", got, mean)
	}
	if got := Combine(vals, 1.5); math.Abs(got-(mean+1.5*sd)) > 1e-12 {
		t.Errorf("theta=1.5: %g, want %g", got, mean+1.5*sd)
	}
}

func TestNetworkEvaluate(t *testing.T) {
	net := testNetwork(t, 6, 0.23, 8e6)
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	ev, err := net.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.PerNode) != 6 || len(ev.PerNodeQuality) != 6 || len(ev.PerNodeDelay) != 6 {
		t.Fatal("wrong vector lengths")
	}
	if ev.Energy <= 0 {
		t.Errorf("network energy %v must be positive", ev.Energy)
	}
	if ev.Quality <= 0 {
		t.Errorf("network PRD %g must be positive", ev.Quality)
	}
	if ev.Delay <= 0 {
		t.Errorf("network delay %v must be positive", ev.Delay)
	}
	// Balanced nodes of two kinds: energy metric must exceed the plain
	// mean because ϑ > 0 and DWT ≠ CS consumption.
	var mean float64
	for _, eb := range ev.PerNode {
		mean += float64(eb.Total)
	}
	mean /= 6
	if float64(ev.Energy) <= mean {
		t.Errorf("Eq.8 with ϑ>0 should exceed the mean (%g vs %g)", float64(ev.Energy), mean)
	}
}

func TestNetworkEvaluateInfeasiblePropagates(t *testing.T) {
	net := testNetwork(t, 6, 0.23, 1e6) // DWT nodes infeasible at 1 MHz
	_, err := net.Evaluate()
	if !IsInfeasible(err) {
		t.Fatalf("err = %v, want infeasible", err)
	}
}

func TestNetworkValidation(t *testing.T) {
	if _, err := (&Network{}).Evaluate(); err == nil {
		t.Error("empty network: want error")
	}
	n := testNode(t, "a", "cs", 0.23, 8e6)
	if _, err := (&Network{Nodes: []*Node{n}}).Evaluate(); err == nil {
		t.Error("missing MAC: want error")
	}
	mac := testMAC(t, 2, 2, 80, 1)
	if _, err := (&Network{Nodes: []*Node{n}, MAC: mac, Theta: -1}).Evaluate(); err == nil {
		t.Error("negative theta: want error")
	}
	bad := &Node{Name: "bad"}
	if err := (&Network{Nodes: []*Node{bad}, MAC: mac}).Validate(); err == nil {
		t.Error("invalid node accepted")
	}
}

func TestGTSMacValidation(t *testing.T) {
	sf := ieee.SuperframeConfig{BeaconOrder: 2, SuperframeOrder: 2}
	if _, err := NewGTSMac(sf, 0, 3); err == nil {
		t.Error("payload 0: want error")
	}
	if _, err := NewGTSMac(sf, 200, 3); err == nil {
		t.Error("payload beyond 114: want error")
	}
	if _, err := NewGTSMac(sf, 80, 0); err == nil {
		t.Error("no nodes: want error")
	}
	if _, err := NewGTSMac(sf, 80, 8); !IsInfeasible(err) {
		t.Error("8 nodes > 7 GTSs: want infeasible")
	}
	if _, err := NewGTSMac(ieee.SuperframeConfig{BeaconOrder: 1, SuperframeOrder: 2}, 80, 3); err == nil {
		t.Error("SO > BO: want error")
	}
}

func TestGTSMacPaperFormulas(t *testing.T) {
	mac := testMAC(t, 2, 1, 80, 6)
	phi := units.BytesPerSecond(86.25) // 375 × 0.23
	// Ω = 13·φ/L.
	if got, want := float64(mac.DataOverhead(phi)), 13*86.25/80; math.Abs(got-want) > 1e-12 {
		t.Errorf("Ω = %g, want %g", got, want)
	}
	// Ψ_n→c = 0.
	if got := float64(mac.ControlUp(phi)); got != 0 {
		t.Errorf("Ψ_n→c = %g, want 0", got)
	}
	// Ψ_c→n = 4·φ/L + L_beacon/BI.
	bi := float64(mac.Superframe.BeaconInterval())
	want := 4*86.25/80 + float64(ieee.BeaconBytes(6))/bi
	if got := float64(mac.ControlDown(phi)); math.Abs(got-want) > 1e-12 {
		t.Errorf("Ψ_c→n = %g, want %g", got, want)
	}
	// Capacity = 7/16 · SD/BI.
	sd := float64(mac.Superframe.SuperframeDuration())
	if got, want := mac.Capacity(), 7.0/16*sd/bi; math.Abs(got-want) > 1e-15 {
		t.Errorf("capacity = %g, want %g", got, want)
	}
	// Quantum: slot per second.
	if got, want := mac.Quantum(), sd/16/bi; math.Abs(got-want) > 1e-15 {
		t.Errorf("quantum = %g, want %g", got, want)
	}
	// Eq.2 closure: ControlTime = 1 − capacity.
	if got := mac.ControlTime() + mac.Capacity(); math.Abs(got-1) > 1e-15 {
		t.Errorf("ControlTime + Capacity = %g, want 1", got)
	}
}

func TestGTSTxTimeComponents(t *testing.T) {
	mac := testMAC(t, 2, 1, 80, 2)
	if got := mac.TxTime(0); got != 0 {
		t.Errorf("TxTime(0) = %g", got)
	}
	// TxTime must exceed the raw air time of the payload alone and grow
	// linearly with the stream.
	t1 := mac.TxTime(80)
	t2 := mac.TxTime(160)
	if t1 <= float64(ieee.AirTime(80)) {
		t.Error("TxTime must include per-packet costs")
	}
	if math.Abs(t2-2*t1) > 1e-12 {
		t.Errorf("TxTime not linear: %g vs 2×%g", t2, t1)
	}
}

func TestEvaluateMatchesManualEq7(t *testing.T) {
	// Cross-check Evaluate against a hand-computed Eq. 3–7 composition
	// for a single CS node.
	n := testNode(t, "a", "cs", 0.23, 8e6)
	mac := testMAC(t, 2, 2, 80, 1)
	eb, err := n.Energy(mac)
	if err != nil {
		t.Fatal(err)
	}
	p := n.Platform
	phiIn := 375.0
	phiOut := phiIn * 0.23
	usage := n.App.Usage(units.BytesPerSecond(phiIn), 8e6)

	sensor := float64(p.Sensor.TransducerPower) + float64(p.Sensor.Alpha1)*250 + float64(p.Sensor.Alpha0)
	micro := usage.Duty * (float64(p.Micro.Alpha1)*8e6 + float64(p.Micro.Alpha0))
	active := usage.AccessesPerSecond * float64(p.Memory.AccessTime)
	mem := active*float64(p.Memory.AccessPower) + (1-active)*8*usage.MemoryBytes*float64(p.Memory.BitIdlePower)
	etx := float64(p.Radio.EnergyPerBitTx())
	erx := float64(p.Radio.EnergyPerBitRx())
	packets := phiOut / 80
	up := phiOut + 13*packets + 6*packets
	down := 4*packets + float64(ieee.BeaconBytes(1))/float64(mac.Superframe.BeaconInterval()) +
		6*(packets+1/float64(mac.Superframe.BeaconInterval()))
	radioW := 8*up*etx + 8*down*erx + float64(p.Radio.SleepPower)

	if math.Abs(float64(eb.Sensor)-sensor) > 1e-15 {
		t.Errorf("sensor %g vs manual %g", float64(eb.Sensor), sensor)
	}
	if math.Abs(float64(eb.Micro)-micro) > 1e-15 {
		t.Errorf("micro %g vs manual %g", float64(eb.Micro), micro)
	}
	if math.Abs(float64(eb.Memory)-mem) > 1e-15 {
		t.Errorf("memory %g vs manual %g", float64(eb.Memory), mem)
	}
	if math.Abs(float64(eb.Radio)-radioW) > 1e-12 {
		t.Errorf("radio %g vs manual %g", float64(eb.Radio), radioW)
	}
}
