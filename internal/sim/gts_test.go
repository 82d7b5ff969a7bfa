package sim

import (
	"math"
	"testing"

	"wsndse/internal/app"
	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/numeric"
	"wsndse/internal/platform"
	"wsndse/internal/units"
)

func testPlatform() platform.Platform { return platform.Shimmer() }

var simTestPoly = numeric.Poly{30, -100, 120}

func testApp(t *testing.T, kind string, cr float64) app.Application {
	t.Helper()
	var profile app.Profile
	switch kind {
	case "dwt":
		profile = app.DWTProfile()
	case "cs":
		profile = app.CSProfile()
	}
	a, err := app.NewCompression(profile, cr, simTestPoly)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// testConfig builds a case-study-like network: N nodes, half DWT half CS,
// minimal GTS allocations from SlotsFor.
func testConfig(t *testing.T, n int, cr float64, fuc units.Hertz, bo, so int) Config {
	t.Helper()
	sf := ieee.SuperframeConfig{BeaconOrder: bo, SuperframeOrder: so}
	payload := 48
	nodes := make([]NodeConfig, n)
	for i := range nodes {
		kind := "dwt"
		if i >= n/2 {
			kind = "cs"
		}
		a := testApp(t, kind, cr)
		p := testPlatform()
		phiOut := float64(a.OutputRate(p.InputRate(250)))
		nodes[i] = NodeConfig{
			Name:       kind,
			Platform:   p,
			App:        a,
			SampleFreq: 250,
			MicroFreq:  fuc,
			Slots:      SlotsFor(sf, payload, phiOut),
		}
	}
	return Config{
		Superframe:   sf,
		PayloadBytes: payload,
		Nodes:        nodes,
		Duration:     20,
		Seed:         1,
	}
}

func TestValidateConfig(t *testing.T) {
	good := testConfig(t, 2, 0.23, 8e6, 3, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.PayloadBytes = 0 },
		func(c *Config) { c.PayloadBytes = 200 },
		func(c *Config) { c.Nodes = nil },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.PacketErrorRate = 1 },
		func(c *Config) { c.Nodes[0].App = nil },
		func(c *Config) { c.Nodes[0].SampleFreq = 0 },
		func(c *Config) { c.Nodes[0].Slots = -1 },
		func(c *Config) { c.Nodes[0].Slots = 8 },
		func(c *Config) { c.Superframe.SuperframeOrder = 99 },
	}
	for i, mutate := range cases {
		c := testConfig(t, 2, 0.23, 8e6, 3, 2)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestValidateRejectsNonFinite feeds NaN and infinite inputs to every
// range check a simulation input passes. A NaN duration or an infinite one
// never ends a run, so the table only validates and never runs.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"duration NaN", func(c *Config) { c.Duration = units.Seconds(nan) }},
		{"duration +Inf", func(c *Config) { c.Duration = units.Seconds(inf) }},
		{"PER NaN", func(c *Config) { c.PacketErrorRate = nan }},
		{"sample rate NaN", func(c *Config) { c.Nodes[0].SampleFreq = units.Hertz(nan) }},
		{"sample rate +Inf", func(c *Config) { c.Nodes[0].SampleFreq = units.Hertz(inf) }},
		{"µC frequency NaN", func(c *Config) { c.Nodes[1].MicroFreq = units.Hertz(nan) }},
		{"µC frequency +Inf", func(c *Config) { c.Nodes[1].MicroFreq = units.Hertz(inf) }},
		{"link start NaN", func(c *Config) { c.Nodes[0].Link = []LinkPhase{{Start: units.Seconds(nan)}} }},
		{"link second start NaN", func(c *Config) {
			c.Nodes[0].Link = []LinkPhase{{Start: 0}, {Start: units.Seconds(nan)}}
		}},
		{"link PER NaN", func(c *Config) { c.Nodes[0].Link = []LinkPhase{{Start: 0, PER: nan}} }},
	}
	for _, tc := range cases {
		c := testConfig(t, 2, 0.23, 8e6, 3, 2)
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the configuration", tc.name)
		}
	}
	for _, profile := range []app.Profile{app.DWTProfile(), app.CSProfile()} {
		for _, cr := range []float64{nan, inf, math.Inf(-1)} {
			if _, err := app.NewCompression(profile, cr, simTestPoly); err == nil {
				t.Errorf("%s: NewCompression accepted CR %g", profile.Name, cr)
			}
		}
	}
}

func TestRunBasicStability(t *testing.T) {
	cfg := testConfig(t, 6, 0.23, 8e6, 3, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Error("minimal-allocation network should be stable")
	}
	wantBeacons := 162 // 20 s / 122.88 ms per beacon interval
	if res.BeaconsSent < wantBeacons-1 {
		t.Errorf("beacons = %d, want ≈%d", res.BeaconsSent, wantBeacons)
	}
	for i, n := range res.Nodes {
		if n.PacketsSent == 0 {
			t.Errorf("node %d sent nothing", i)
		}
		if n.PacketsDropped != 0 || n.Retries != 0 {
			t.Errorf("node %d: drops/retries on a clean channel", i)
		}
		if n.Energy.Total <= 0 {
			t.Errorf("node %d: energy %v", i, n.Energy.Total)
		}
		// Throughput: delivered bytes ≈ φ_out × duration (within a
		// couple of packets of slack).
		phiOut := 375 * 0.23
		want := phiOut * 20
		if math.Abs(float64(n.BytesDelivered)-want) > 3*80 {
			t.Errorf("node %d delivered %d B, want ≈%.0f", i, n.BytesDelivered, want)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := testConfig(t, 4, 0.29, 8e6, 3, 2)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes {
		if a.Nodes[i].Energy.Total != b.Nodes[i].Energy.Total {
			t.Errorf("node %d: energies differ between identical runs", i)
		}
		if a.Nodes[i].Delay.Max != b.Nodes[i].Delay.Max {
			t.Errorf("node %d: delays differ between identical runs", i)
		}
	}
}

func TestRunDelaysBoundedUnderUniformArrivals(t *testing.T) {
	// Under the paper's uniform-rate assumption, the worst delay stays
	// within roughly one beacon interval plus a service time.
	cfg := testConfig(t, 6, 0.23, 8e6, 3, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bi := float64(cfg.Superframe.BeaconInterval())
	for i, n := range res.Nodes {
		if n.Delay.Count == 0 {
			t.Fatalf("node %d has no delay samples", i)
		}
		if float64(n.Delay.Max) > 1.5*bi {
			t.Errorf("node %d: max delay %v exceeds 1.5×BI (%v)",
				i, n.Delay.Max, units.Seconds(bi))
		}
		if n.Delay.Mean <= 0 || n.Delay.Max < n.Delay.Mean || n.Delay.P95 > n.Delay.Max {
			t.Errorf("node %d: inconsistent delay stats %+v", i, n.Delay)
		}
	}
}

func TestRunBlockArrivalsWorseDelays(t *testing.T) {
	uni := testConfig(t, 4, 0.29, 8e6, 3, 2)
	res1, err := Run(uni)
	if err != nil {
		t.Fatal(err)
	}
	blk := testConfig(t, 4, 0.29, 8e6, 3, 2)
	blk.Arrival = ArrivalBlock
	res2, err := Run(blk)
	if err != nil {
		t.Fatal(err)
	}
	// A whole block arriving at once must queue behind the per-
	// superframe GTS capacity: worst-case delay grows substantially.
	for i := range res1.Nodes {
		if res2.Nodes[i].Delay.Max <= res1.Nodes[i].Delay.Max {
			t.Errorf("node %d: block arrivals should worsen max delay (%v vs %v)",
				i, res2.Nodes[i].Delay.Max, res1.Nodes[i].Delay.Max)
		}
	}
}

func TestRunPacketErrors(t *testing.T) {
	cfg := testConfig(t, 2, 0.23, 8e6, 3, 2)
	cfg.PacketErrorRate = 0.2
	cfg.Duration = 30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	totalRetries := 0
	for _, n := range res.Nodes {
		totalRetries += n.Retries
		// With retries, deliveries continue.
		if n.PacketsSent == 0 {
			t.Error("no deliveries despite retries")
		}
	}
	if totalRetries == 0 {
		t.Error("20% loss must cause retries")
	}
	// Drops are rare with 3 retries at 20% loss (0.2⁴ ≈ 0.16%).
	for i, n := range res.Nodes {
		if n.PacketsDropped > n.PacketsSent/20 {
			t.Errorf("node %d: implausibly many drops %d/%d", i, n.PacketsDropped, n.PacketsSent)
		}
	}
}

func TestRunUnderAllocatedIsUnstable(t *testing.T) {
	// Give a heavy stream a single slot when it needs more: queue grows.
	sf := ieee.SuperframeConfig{BeaconOrder: 5, SuperframeOrder: 3}
	a := testApp(t, "dwt", 0.38)
	p := testPlatform()
	phiOut := float64(a.OutputRate(p.InputRate(250)))
	need := SlotsFor(sf, 48, phiOut)
	if need < 2 {
		t.Skipf("config needs only %d slots; pick a heavier one", need)
	}
	cfg := Config{
		Superframe:   sf,
		PayloadBytes: 48,
		Nodes: []NodeConfig{{
			Name: "starved", Platform: p, App: a,
			SampleFreq: 250, MicroFreq: 8e6, Slots: 1,
		}},
		Duration: 60,
		Seed:     3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stable {
		t.Error("under-allocated node should be flagged unstable")
	}
}

func TestRadioStateTimesSumToDuration(t *testing.T) {
	cfg := testConfig(t, 3, 0.23, 8e6, 3, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range res.Nodes {
		var sum float64
		for _, d := range n.RadioStateTime {
			sum += float64(d)
		}
		if math.Abs(sum-float64(cfg.Duration)) > 1e-9 {
			t.Errorf("node %d: state times sum to %g, want %g", i, sum, float64(cfg.Duration))
		}
		// A duty-cycled node sleeps most of the time.
		if float64(n.RadioStateTime[StateSleep]) < 0.5*float64(cfg.Duration) {
			t.Errorf("node %d sleeps only %v of %v", i, n.RadioStateTime[StateSleep], cfg.Duration)
		}
		if n.Ramps == 0 {
			t.Errorf("node %d never ramped", i)
		}
	}
}

func TestSlotsFor(t *testing.T) {
	sf := ieee.SuperframeConfig{BeaconOrder: 2, SuperframeOrder: 2}
	if got := SlotsFor(sf, 80, 0); got != 0 {
		t.Errorf("zero stream needs %d slots", got)
	}
	// Monotone in the stream rate.
	prev := 0
	for _, phi := range []float64{64, 143, 375, 750} {
		k := SlotsFor(sf, 80, phi)
		if k < prev {
			t.Errorf("slots for %g B/s = %d, less than lighter stream", phi, k)
		}
		prev = k
	}
	// The protocol floor: even a trickle needs a window fitting one
	// whole packet service.
	k := SlotsFor(sf, 114, 1)
	service := float64(ieee.Turnaround()) + float64(ieee.DataFrameAirTime(114)) +
		float64(ieee.AckAirTime()) + float64(ieee.IFS(114+13))
	if float64(k)*float64(sf.SlotDuration()) < service {
		t.Errorf("window of %d slots cannot fit one packet", k)
	}
}

func TestRunEnergyScalesWithTraffic(t *testing.T) {
	lo := testConfig(t, 2, 0.17, 8e6, 3, 2)
	hi := testConfig(t, 2, 0.38, 8e6, 3, 2)
	rlo, err := Run(lo)
	if err != nil {
		t.Fatal(err)
	}
	rhi, err := Run(hi)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rlo.Nodes {
		if rhi.Nodes[i].Energy.Radio <= rlo.Nodes[i].Energy.Radio {
			t.Errorf("node %d: radio energy should grow with CR", i)
		}
	}
}

func TestArrivalModelString(t *testing.T) {
	if ArrivalUniform.String() != "uniform" || ArrivalBlock.String() != "block" {
		t.Error("arrival model names")
	}
	if ArrivalModel(9).String() == "" {
		t.Error("unknown arrival name empty")
	}
}
