package scenario

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/platform"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

func TestBuiltinsRegistered(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("want at least 4 registered scenarios, got %v", names)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names not sorted: %v", names)
	}
	for _, want := range []string{"ecg-ward", "mixed-ward", "athletes", "dense-gts", "raw-stream"} {
		sc, ok := Lookup(want)
		if !ok {
			t.Errorf("built-in %q not registered", want)
			continue
		}
		if sc.Name != want {
			t.Errorf("Lookup(%q) returned scenario named %q", want, sc.Name)
		}
		if sc.Description == "" || sc.Stress == "" {
			t.Errorf("%q lacks description or stress note", want)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("Lookup invented a scenario")
	}
}

func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	if err := Register(ECGWard()); err == nil {
		t.Error("duplicate registration accepted")
	}
	bad := ECGWard()
	bad.Name = "bad-ward"
	bad.Nodes = nil
	if err := Register(bad); err == nil {
		t.Error("invalid scenario registered")
	}
	if _, ok := Lookup("bad-ward"); ok {
		t.Error("rejected scenario ended up in the registry")
	}
}

func TestLookupReturnsDeepCopies(t *testing.T) {
	a, _ := Lookup("ecg-ward")
	a.Nodes[0].CRs[0] = 0.99
	a.Payloads[0] = 1
	a.Nodes[0].Platform.MicroFreqs[0] = 1
	b, _ := Lookup("ecg-ward")
	if b.Nodes[0].CRs[0] == 0.99 || b.Payloads[0] == 1 || b.Nodes[0].Platform.MicroFreqs[0] == 1 {
		t.Error("mutating a looked-up scenario corrupted the registry")
	}
}

func TestValidateTable(t *testing.T) {
	mutate := func(f func(*Scenario)) Scenario {
		sc := MixedWard()
		sc.Name = "mutant"
		f(&sc)
		return sc
	}
	cases := []struct {
		name string
		sc   Scenario
		want string // substring of the error
	}{
		{"empty name", mutate(func(s *Scenario) { s.Name = "" }), "empty name"},
		{"no nodes", mutate(func(s *Scenario) { s.Nodes = nil }), "no nodes"},
		{"unnamed node", mutate(func(s *Scenario) { s.Nodes[0].Name = "" }), "no name"},
		{"duplicate node name", mutate(func(s *Scenario) { s.Nodes[1].Name = s.Nodes[0].Name }), "duplicate node name"},
		{"bad kind", mutate(func(s *Scenario) { s.Nodes[0].Kind = casestudy.Kind(42) }), "unknown kind"},
		{"compression without CRs", mutate(func(s *Scenario) { s.Nodes[0].CRs = nil }), "no CR values"},
		{"CR out of range", mutate(func(s *Scenario) { s.Nodes[0].CRs = []float64{1.5} }), "out of (0,1]"},
		{"bad sample rate", mutate(func(s *Scenario) { s.Nodes[0].SampleFreq = 0 }), "sample rate"},
		{"bad frequency", mutate(func(s *Scenario) { s.Nodes[0].MicroFreqs = []units.Hertz{-1} }), "µC frequency"},
		{"oversized payload override", mutate(func(s *Scenario) { s.Nodes[3].PayloadBytes = 200 }), "payload override"},
		{"no beacon orders", mutate(func(s *Scenario) { s.BeaconOrders = nil }), "MAC axis"},
		{"beacon order out of range", mutate(func(s *Scenario) { s.BeaconOrders = []int{15} }), "beacon order"},
		{"negative gap", mutate(func(s *Scenario) { s.SFOGaps = []int{-1} }), "SFO gap"},
		{"payload axis out of range", mutate(func(s *Scenario) { s.Payloads = []int{0} }), "payload 0"},
		{"negative theta", mutate(func(s *Scenario) { s.Theta = -0.5 }), "balance weight"},
		{"bad PER", mutate(func(s *Scenario) { s.Traffic.PacketErrorRate = 1 }), "error rate"},
		{"negative block", mutate(func(s *Scenario) { s.Traffic.BlockSamples = -1 }), "block size"},
		{"bad duration", mutate(func(s *Scenario) { s.SimDuration = 0 }), "duration"},
	}
	for _, tc := range cases {
		err := tc.sc.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := MixedWard().Validate(); err != nil {
		t.Errorf("pristine scenario invalid: %v", err)
	}
}

// TestValidateRejectsNonFinite checks copies of ecg-ward with one field
// NaN or +Inf: each must fail Validate. A NaN ϑ used to validate, and the
// reference evaluator then returned NaN objectives with no error.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		cases := []struct {
			name string
			set  func(*Scenario)
		}{
			{"CR", func(s *Scenario) { s.Nodes[0].CRs[0] = v }},
			{"sample rate", func(s *Scenario) { s.Nodes[0].SampleFreq = units.Hertz(v) }},
			{"platform µC frequency", func(s *Scenario) { s.Nodes[0].Platform.MicroFreqs[0] = units.Hertz(v) }},
			{"node µC frequency", func(s *Scenario) { s.Nodes[0].MicroFreqs = []units.Hertz{units.Hertz(v)} }},
			{"theta", func(s *Scenario) { s.Theta = v }},
			{"PER", func(s *Scenario) { s.Traffic.PacketErrorRate = v }},
			{"sim duration", func(s *Scenario) { s.SimDuration = units.Seconds(v) }},
		}
		for _, tc := range cases {
			sc, _ := Lookup("ecg-ward")
			tc.set(&sc)
			if err := sc.Validate(); err == nil {
				t.Errorf("ecg-ward with %s %g validated", tc.name, v)
			}
		}
	}
}

// TestValidateRejectsNaNHardware sets one platform or radio coefficient of
// an ecg-ward copy to NaN, one case per check of platform.Platform.Validate
// and radio.Chip.Validate. Each copy must fail validation: a NaN
// coefficient that validates makes the model return a NaN energy.
func TestValidateRejectsNaNHardware(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		set  func(*platform.Platform)
	}{
		{"sensor transducer power", func(p *platform.Platform) { p.Sensor.TransducerPower = units.Watts(nan) }},
		{"sensor α1", func(p *platform.Platform) { p.Sensor.Alpha1 = units.Joules(nan) }},
		{"sensor α0", func(p *platform.Platform) { p.Sensor.Alpha0 = units.Watts(nan) }},
		{"µC α1", func(p *platform.Platform) { p.Micro.Alpha1 = units.Joules(nan) }},
		{"µC α0", func(p *platform.Platform) { p.Micro.Alpha0 = units.Watts(nan) }},
		{"memory access time", func(p *platform.Platform) { p.Memory.AccessTime = units.Seconds(nan) }},
		{"memory access power", func(p *platform.Platform) { p.Memory.AccessPower = units.Watts(nan) }},
		{"memory bit idle power", func(p *platform.Platform) { p.Memory.BitIdlePower = units.Watts(nan) }},
		{"µC frequency", func(p *platform.Platform) { p.MicroFreqs[0] = units.Hertz(nan) }},
		{"radio bit rate", func(p *platform.Platform) { p.Radio.BitRate = units.BitsPerSecond(nan) }},
		{"radio TX power", func(p *platform.Platform) { p.Radio.TxPower = units.Watts(nan) }},
		{"radio RX power", func(p *platform.Platform) { p.Radio.RxPower = units.Watts(nan) }},
		{"radio sleep power", func(p *platform.Platform) { p.Radio.SleepPower = units.Watts(nan) }},
		{"radio idle power", func(p *platform.Platform) { p.Radio.IdlePower = units.Watts(nan) }},
		{"radio ramp-up time", func(p *platform.Platform) { p.Radio.RampUpTime = units.Seconds(nan) }},
		{"radio ramp-up energy", func(p *platform.Platform) { p.Radio.RampUpEnergy = units.Joules(nan) }},
		{"radio turnaround time", func(p *platform.Platform) { p.Radio.TurnaroundTime = units.Seconds(nan) }},
	}
	for _, tc := range cases {
		sc, _ := Lookup("ecg-ward")
		tc.set(&sc.Nodes[0].Platform)
		if err := sc.Validate(); err == nil {
			t.Errorf("ecg-ward with NaN %s validated", tc.name)
		}
	}
}

func TestProblemGeneLayout(t *testing.T) {
	p, err := NewProblem(MixedWard(), casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	// 3 shared MAC genes + one CR gene per compression node (3) + one
	// frequency gene per node (6).
	if got, want := len(p.Space().Params), 3+3+6; got != want {
		t.Fatalf("gene count = %d, want %d", got, want)
	}
	for i, ns := range p.Scenario.Nodes {
		if ns.Kind == casestudy.KindRaw {
			if p.crGene[i] != -1 {
				t.Errorf("raw node %s got CR gene %d", ns.Name, p.crGene[i])
			}
		} else if p.crGene[i] < 0 {
			t.Errorf("compression node %s has no CR gene", ns.Name)
		}
		if p.fGene[i] < 0 {
			t.Errorf("node %s has no frequency gene", ns.Name)
		}
	}
}

func TestDecodeClampsAndDefaults(t *testing.T) {
	p, err := NewProblem(MixedWard(), casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	c := p.NominalConfig()
	c[0] = 0                                   // BO = 2 (smallest)
	c[1] = len(p.Space().Params[1].Values) - 1 // gap = 2
	params, err := p.Decode(c)
	if err != nil {
		t.Fatal(err)
	}
	if params.SuperframeOrder != params.BeaconOrder-2 {
		t.Errorf("SFO %d with BO %d and gap 2", params.SuperframeOrder, params.BeaconOrder)
	}
	for i, ns := range p.Scenario.Nodes {
		if ns.Kind == casestudy.KindRaw && params.CR[i] != 1 {
			t.Errorf("raw node %s decoded CR %g, want 1", ns.Name, params.CR[i])
		}
	}
	if _, err := p.Decode(nil); err == nil {
		t.Error("nil config decoded")
	}
}

func TestMaterializationCarriesOverrides(t *testing.T) {
	p, err := NewProblem(MixedWard(), casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	params, err := p.FeasibleParams()
	if err != nil {
		t.Fatal(err)
	}
	net, err := p.Network(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.NodeMACs) != len(net.Nodes) {
		t.Fatalf("expected per-node MAC views for the override nodes, got %d", len(net.NodeMACs))
	}
	for i, ns := range p.Scenario.Nodes {
		hasView := net.NodeMACs[i] != nil
		if hasView != (ns.PayloadBytes > 0) {
			t.Errorf("node %s: view=%v but payload override=%d", ns.Name, hasView, ns.PayloadBytes)
		}
	}
	cfg, err := p.DefaultSimConfig(params)
	if err != nil {
		t.Fatal(err)
	}
	for i, nc := range cfg.Nodes {
		if nc.PayloadBytes != p.Scenario.Nodes[i].PayloadBytes {
			t.Errorf("sim node %s payload override %d, want %d",
				nc.Name, nc.PayloadBytes, p.Scenario.Nodes[i].PayloadBytes)
		}
		if nc.Slots < 1 {
			t.Errorf("sim node %s has no GTS slots", nc.Name)
		}
	}
	if cfg.PacketErrorRate != p.Scenario.Traffic.PacketErrorRate {
		t.Errorf("traffic profile not carried: PER %g", cfg.PacketErrorRate)
	}
}

func TestAthletesTrafficProfile(t *testing.T) {
	p, err := NewProblem(Athletes(), casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	params, err := p.FeasibleParams()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := p.DefaultSimConfig(params)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Arrival != sim.ArrivalBlock || cfg.PacketErrorRate != 0.05 || cfg.BlockSamples != 256 {
		t.Errorf("athletes traffic profile lost: %+v", cfg)
	}
}

func TestDenseGTSPastSlotLimitIsInfeasible(t *testing.T) {
	sc := DenseGTS(9)
	sc.Name = "dense-gts-9"
	p, err := NewProblem(sc, casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	// Nine nodes cannot share seven GTS slots: the MAC itself refuses,
	// so no configuration in the space is feasible.
	eval := p.Evaluator()
	if _, err := eval.Evaluate(p.NominalConfig()); err == nil {
		t.Error("9-node dense scenario evaluated feasibly")
	}
}

// TestSimConfigMirrorsModelAssignment checks that both sides of the Fig. 3
// comparison describe the same network: on the case-study ward, the
// simulator's GTS slot count for every node equals the model's Eq. 1
// assignment K[i], at the Fig. 3 operating point and at random feasible
// configurations.
func TestSimConfigMirrorsModelAssignment(t *testing.T) {
	p, err := NewProblem(ECGWard(), casestudy.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.Scenario.Nodes)
	fig3 := Params{BeaconOrder: 3, SuperframeOrder: 2, PayloadBytes: 48,
		CR: make([]float64, n), MicroFreq: make([]units.Hertz, n)}
	for i := 0; i < n; i++ {
		fig3.CR[i], fig3.MicroFreq[i] = 0.23, 8e6
	}
	samples := []Params{fig3}
	eval := p.Evaluator()
	rng := rand.New(rand.NewSource(11))
	for len(samples) < 40 {
		c := p.Space().Random(rng)
		if _, err := eval.Evaluate(c); err != nil {
			continue
		}
		params, err := p.Decode(c)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, params)
	}
	for _, params := range samples {
		cfg, err := p.SimConfig(params, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("sim config invalid: %v", err)
		}
		net, err := p.Network(params)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := net.Evaluate()
		if err != nil {
			t.Fatalf("%+v: %v", params, err)
		}
		for i := range cfg.Nodes {
			if cfg.Nodes[i].Slots != ev.Assignment.K[i] {
				t.Errorf("%+v node %d: sim slots %d vs model k %d", params, i, cfg.Nodes[i].Slots, ev.Assignment.K[i])
			}
		}
	}
}
