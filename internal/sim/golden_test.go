package sim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"

	"wsndse/internal/casestudy"
	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/scenario"
	"wsndse/internal/scenario/family"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

// simGolden holds the SHA-256 of every field of sim.Result for each case
// of TestSimResultGolden. The digests pin the simulator's output bit for
// bit: any change to event order, radio accounting, the loss process or
// the result's statistics shows here, even when it leaves every rendered
// report and every repeated run of one tree unchanged.
var simGolden = map[string]string{
	"athletes":               "607e805c5bac009953b38f8c0bcc619c73aad6fb29be29ead8569a139adcab53",
	"dense-gts":              "4afe4b7beaafd18a7473c87e619aa4ee6e4cea6f0366534b37e2719d0ee992fe",
	"ecg-ward":               "8c251780501aa56102bb381a027117e758cad88f3a3de7e1360115f7865f59bd",
	"mixed-ward":             "534b0d389d0c8c0dd64ae521a6d5a6546652cd7a183181f680b357e7d6d1e1af",
	"raw-stream":             "711c18cab9200894da83815a506488faa5e59f842dc3d341b03daeb048ebde5e",
	"ecg-ward/block":         "7020fabce9d969b457293a58511822b9d5d6f6c3b63f7337359b5244d793d3f6",
	"ecg-ward/overrides":     "3af2c97678beb9c86c8caa1b9fc0d6c5fa73c8280a4f90534a360949fb430d3d",
	"mobile-relay":           "d7119e2a863418c893c9e5bcbf2bc3a6301d6b040acbbe1017f4c26c16dd9ae0",
	"ecg-ward/per0.5":        "5435d8ca700cbeffd6fb6f3db38d06904e5d3871a4e651e544d2181e6ad04c18",
	"ecg-ward/cut-mid-frame": "3abb97dd6f138889c2f6cf4aa5f39058aad96d2a7702084a0bf4e2df04347a2d",
	"ecg-ward/bo5-so2":       "e198e0c510dfb0dfee64341376446f7e719fec1975c804bfa63fb92a575d19ed",
	"ecg-ward/bo3-so3":       "71b6ce49c6e8b6172b63cbc5ce8148f2a2b6ad397815195416bc47438499aeb9",
}

// TestSimResultGolden runs a fixed matrix of simulations and compares the
// digest of each full sim.Result with the recorded one: every builtin
// scenario at its feasible parameters, duration and seed, plus variants
// that reach the engine's corner cases (block arrivals, per-node payload
// and arrival overrides, a mobile relay's link schedule, retries and
// drops, a run cut mid-transmission, BO > SO, and BO = SO, where a node's
// wake, its beacon listen and the end of its previous GTS window fall at
// one instant).
func TestSimResultGolden(t *testing.T) {
	cases := goldenCases(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := sim.Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.check != nil {
				c.check(t, res)
			}
			got := resultDigest(res)
			want, ok := simGolden[c.name]
			if !ok {
				t.Fatalf("no golden digest recorded; got %s", got)
			}
			if got != want {
				t.Fatalf("sim.Result digest %s, want %s", got, want)
			}
		})
	}
	if len(cases) != len(simGolden) {
		t.Errorf("%d cases ran, %d digests recorded", len(cases), len(simGolden))
	}
}

type goldenCase struct {
	name  string
	cfg   sim.Config
	check func(*testing.T, *sim.Result) // asserts the case reaches its corner
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, sc := range scenario.List() {
		cases = append(cases, goldenCase{name: sc.Name, cfg: feasibleSimConfig(t, sc)})
	}

	ward := feasibleSimConfig(t, scenario.ECGWard())

	block := cloneConfig(ward)
	block.Arrival = sim.ArrivalBlock
	cases = append(cases, goldenCase{name: "ecg-ward/block", cfg: block})

	over := cloneConfig(ward)
	over.Nodes[1].PayloadBytes = 24
	over.Nodes[4].Arrival = sim.ArrivalBlock
	reslot(t, &over)
	cases = append(cases, goldenCase{name: "ecg-ward/overrides", cfg: over})

	relay, err := family.MobileRelay().Scenario(family.Values{
		"nodes": "n4", "walk": "corridor", "pace": "fast", "relay": "z1",
	})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, goldenCase{
		name: "mobile-relay", cfg: feasibleSimConfig(t, relay),
		check: func(t *testing.T, res *sim.Result) {
			if res.Nodes[len(res.Nodes)-1].Retries == 0 {
				t.Error("the relay's lossy phases caused no retries")
			}
		},
	})

	lossy := cloneConfig(ward)
	lossy.PacketErrorRate = 0.5
	cases = append(cases, goldenCase{
		name: "ecg-ward/per0.5", cfg: lossy,
		check: func(t *testing.T, res *sim.Result) {
			retries, drops := 0, 0
			for _, n := range res.Nodes {
				retries += n.Retries
				drops += n.PacketsDropped
			}
			if retries == 0 || drops == 0 {
				t.Errorf("PER 0.5 gave %d retries and %d drops, want both > 0", retries, drops)
			}
		},
	})

	cases = append(cases, goldenCase{name: "ecg-ward/cut-mid-frame", cfg: midFrameCut(t, ward)})

	wide := cloneConfig(ward)
	wide.Superframe = ieee.SuperframeConfig{BeaconOrder: 5, SuperframeOrder: 2}
	reslot(t, &wide)
	cases = append(cases, goldenCase{name: "ecg-ward/bo5-so2", cfg: wide})

	// With BO = SO the active portion fills the beacon interval, so the
	// last GTS window ends on the next beacon and its owner's wake-up is
	// pushed onto that instant.
	tied := cloneConfig(ward)
	tied.Superframe = ieee.SuperframeConfig{BeaconOrder: 3, SuperframeOrder: 3}
	reslot(t, &tied)
	cases = append(cases, goldenCase{name: "ecg-ward/bo3-so3", cfg: tied})
	return cases
}

// feasibleSimConfig is the scenario's simulator configuration at its
// feasible parameters, default duration and default seed.
func feasibleSimConfig(t *testing.T, sc scenario.Scenario) sim.Config {
	t.Helper()
	p, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
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
	return cfg
}

func cloneConfig(c sim.Config) sim.Config {
	c.Nodes = append([]sim.NodeConfig(nil), c.Nodes...)
	return c
}

// reslot resizes every node's GTS allocation for the configuration's
// superframe and the node's effective payload, as scenario.SimConfig does.
func reslot(t *testing.T, c *sim.Config) {
	t.Helper()
	for i := range c.Nodes {
		n := &c.Nodes[i]
		payload := n.PayloadBytes
		if payload == 0 {
			payload = c.PayloadBytes
		}
		phiOut := float64(n.App.OutputRate(n.Platform.InputRate(n.SampleFreq)))
		n.Slots = sim.SlotsFor(c.Superframe, payload, phiOut)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// midFrameCut returns c with a duration that ends halfway through the
// first frame node 0 sends in its GTS window, in the first superframe from
// the 40th on where it sends one. It checks the cut: the run ending there
// holds exactly half a frame more Tx time than the run ending as the
// frame starts.
func midFrameCut(t *testing.T, c sim.Config) sim.Config {
	t.Helper()
	n := c.Nodes[0]
	payload := n.PayloadBytes
	if payload == 0 {
		payload = c.PayloadBytes
	}
	bi := float64(c.Superframe.BeaconInterval())
	// Node 0's window is the last n.Slots slots of the active portion.
	offset := float64(ieee.ANumSuperframeSlots-n.Slots)*float64(c.Superframe.SlotDuration()) +
		float64(ieee.Turnaround())
	half := float64(ieee.DataFrameAirTime(payload)) / 2
	txTime := func(d float64) float64 {
		run := cloneConfig(c)
		run.Duration = units.Seconds(d)
		res, err := sim.Run(run)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Nodes[0].RadioStateTime[sim.StateTx])
	}
	for sf := 40; sf < 80; sf++ {
		txStart := float64(sf)*bi + offset
		if got := txTime(txStart+half) - txTime(txStart); math.Abs(got-half) < 1e-12 {
			cut := cloneConfig(c)
			cut.Duration = units.Seconds(txStart + half)
			return cut
		}
	}
	t.Fatal("node 0 sent no frame in superframes 40-79")
	return c
}

// resultDigest hashes every field of a sim.Result: floats by their bits,
// radio residency in state order (absent states included as such) and
// node results in node order.
func resultDigest(res *sim.Result) string {
	// A field added to the result must be added to the digest too.
	if n := reflect.TypeOf(sim.Result{}).NumField(); n != 5 {
		panic("resultDigest: sim.Result has a field the digest does not cover")
	}
	if n := reflect.TypeOf(sim.NodeResult{}).NumField(); n != 11 {
		panic("resultDigest: sim.NodeResult has a field the digest does not cover")
	}
	h := sha256.New()
	putF(h, float64(res.Duration))
	putI(h, int64(res.BeaconsSent))
	putI(h, res.Events)
	putB(h, res.Stable)
	putI(h, int64(len(res.Nodes)))
	for _, n := range res.Nodes {
		h.Write([]byte(n.Name))
		h.Write([]byte{0})
		for _, e := range []units.Joules{n.Energy.Sensor, n.Energy.Micro, n.Energy.Memory, n.Energy.Radio, n.Energy.Total} {
			putF(h, float64(e))
		}
		for _, w := range []units.Watts{n.Power.Sensor, n.Power.Micro, n.Power.Memory, n.Power.Radio, n.Power.Total} {
			putF(h, float64(w))
		}
		putI(h, int64(n.Delay.Count))
		putF(h, float64(n.Delay.Mean))
		putF(h, float64(n.Delay.Max))
		putF(h, float64(n.Delay.P95))
		putI(h, int64(n.PacketsSent))
		putI(h, int64(n.Retries))
		putI(h, int64(n.PacketsDropped))
		putI(h, int64(n.BytesDelivered))
		putI(h, int64(n.QueuePeak))
		putI(h, int64(len(n.RadioStateTime)))
		for st := sim.StateSleep; st <= sim.StateTx; st++ {
			d, ok := n.RadioStateTime[st]
			putB(h, ok)
			putF(h, float64(d))
		}
		putI(h, int64(n.Ramps))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putF(h hash.Hash, x float64) { putU(h, math.Float64bits(x)) }

func putI(h hash.Hash, x int64) { putU(h, uint64(x)) }

func putB(h hash.Hash, b bool) {
	if b {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

func putU(h hash.Hash, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}
