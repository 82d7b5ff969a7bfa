// Package scenario turns the reproduction into a scenario-driven
// exploration system. A Scenario is a declarative description of one
// heterogeneous beacon-enabled IEEE 802.15.4 star workload — per-node
// applications and platforms, payload profiles, traffic models, the
// explorable superframe axes, and the objective balance weight — and the
// process-wide registry lets the CLIs, the experiments harness, and the
// examples select workloads by name instead of hand-assembling problems.
//
// A Scenario is pure data; NewProblem compiles it into a per-node design
// space plus evaluators for both sides of the stack: the analytical model
// (core.Network, with per-node MAC views when nodes carry their own
// payload profiles) and the packet-level simulator (sim.Config, with
// per-node payload and arrival overrides). Everything downstream — the
// DSE algorithms, the concurrent batch-evaluation runtime, the
// experiments harness — consumes scenarios through that Problem.
package scenario

import (
	"fmt"
	"math"

	"wsndse/internal/casestudy"
	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/platform"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

// NodeSpec declares one node of the star: what it runs, on which hardware,
// and which per-node knobs the design space explores for it.
type NodeSpec struct {
	Name string
	// Kind selects the application: the calibrated DWT/CS compressors or
	// the raw passthrough stream.
	Kind casestudy.Kind
	// Platform is the node hardware (e.g. platform.Shimmer for wearables,
	// platform.TelosB for telemetry motes).
	Platform platform.Platform
	// SampleFreq is f_s, fixed by the monitored signal.
	SampleFreq units.Hertz
	// CRs lists the node's explorable compression ratios — its χ_node CR
	// axis. Required for compression kinds; ignored for KindRaw nodes,
	// which always forward at CR 1 and contribute no CR gene.
	CRs []float64
	// MicroFreqs lists the explorable µC frequencies; nil uses the
	// platform's grid.
	MicroFreqs []units.Hertz
	// PayloadBytes fixes this node's frame payload instead of the
	// network-wide payload axis (0 follows the network payload gene).
	// Both the model (a per-node MAC view) and the simulator (a per-node
	// override) honor it.
	PayloadBytes int
	// Arrival overrides the scenario's traffic model for this node
	// (sim.ArrivalDefault inherits it).
	Arrival sim.ArrivalModel
	// Link is the node's time-varying link schedule (mobility): the
	// simulator switches the node's frame loss probability at each
	// phase's start. Empty means the scenario's PacketErrorRate holds
	// for the whole run. The analytical model has no notion of loss, so
	// cross-validation harnesses compare with the schedule suppressed.
	Link []sim.LinkPhase
}

// microFreqs resolves the node's explorable frequency grid.
func (ns NodeSpec) microFreqs() []units.Hertz {
	if len(ns.MicroFreqs) > 0 {
		return ns.MicroFreqs
	}
	return ns.Platform.MicroFreqs
}

// explorableCR reports whether the node contributes a CR gene.
func (ns NodeSpec) explorableCR() bool {
	return ns.Kind != casestudy.KindRaw && len(ns.CRs) > 0
}

// Traffic is the scenario-wide channel and arrival characterization the
// simulator runs under.
type Traffic struct {
	// Arrival is the default traffic model (sim.ArrivalDefault means
	// uniform, matching the paper's assumption).
	Arrival sim.ArrivalModel
	// PacketErrorRate is the i.i.d. frame loss probability in [0,1).
	PacketErrorRate float64
	// BlockSamples sets the codec block size for block arrivals
	// (0 keeps the simulator default of 512).
	BlockSamples int
}

// Scenario is one declarative workload: the node mix, the explorable MAC
// axes, the traffic profile, and the objective weights.
type Scenario struct {
	// Name is the registry key (kebab-case by convention).
	Name string
	// Description is one sentence for listings.
	Description string
	// Stress names what the scenario stresses in the model — GTS
	// starvation, CR sensitivity, mixed traffic — so a reader knows why
	// it exists.
	Stress string

	// Nodes is the heterogeneous star (order is node order everywhere).
	Nodes []NodeSpec

	// BeaconOrders, SFOGaps and Payloads are the shared χ_mac axes:
	// BO values, SFO = BO − gap (floored at 0), and the network payload
	// L_payload in bytes.
	BeaconOrders []int
	SFOGaps      []int
	Payloads     []int

	// Theta is the Eq. 8 balance weight ϑ.
	Theta float64

	// Traffic is the simulator-side channel characterization.
	Traffic Traffic

	// SimDuration is the default simulated wall-clock for verification
	// runs, and SimSeed the default channel seed.
	SimDuration units.Seconds
	SimSeed     int64
}

// clone deep-copies the scenario's slices, so registry storage never
// aliases caller-held memory (and vice versa): a looked-up scenario can be
// mutated into a variant without corrupting the process-wide registry.
func (s Scenario) clone() Scenario {
	out := s
	out.Nodes = make([]NodeSpec, len(s.Nodes))
	for i, ns := range s.Nodes {
		ns.CRs = append([]float64(nil), ns.CRs...)
		ns.MicroFreqs = append([]units.Hertz(nil), ns.MicroFreqs...)
		ns.Platform.MicroFreqs = append([]units.Hertz(nil), ns.Platform.MicroFreqs...)
		ns.Link = append([]sim.LinkPhase(nil), ns.Link...)
		out.Nodes[i] = ns
	}
	out.BeaconOrders = append([]int(nil), s.BeaconOrders...)
	out.SFOGaps = append([]int(nil), s.SFOGaps...)
	out.Payloads = append([]int(nil), s.Payloads...)
	return out
}

// Validate checks the scenario for structural consistency. Every range
// check is written so that NaN fails it, and the CRs, the sample and µC
// frequencies, ϑ, the PER and the sim duration must be finite: a NaN or
// infinite value would otherwise reach the model as NaN objectives with
// no error.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if len(s.Nodes) == 0 {
		return fmt.Errorf("scenario %q: no nodes", s.Name)
	}
	seen := make(map[string]bool, len(s.Nodes))
	for i, ns := range s.Nodes {
		if ns.Name == "" {
			return fmt.Errorf("scenario %q: node %d has no name", s.Name, i)
		}
		if seen[ns.Name] {
			// Names are the only per-node identity in gene labels, sim
			// output and CSVs; duplicates would be unattributable.
			return fmt.Errorf("scenario %q: duplicate node name %q", s.Name, ns.Name)
		}
		seen[ns.Name] = true
		if ns.Kind != casestudy.KindDWT && ns.Kind != casestudy.KindCS && ns.Kind != casestudy.KindRaw {
			return fmt.Errorf("scenario %q: node %s has unknown kind %v", s.Name, ns.Name, ns.Kind)
		}
		if ns.Kind != casestudy.KindRaw && len(ns.CRs) == 0 {
			return fmt.Errorf("scenario %q: compression node %s has no CR values", s.Name, ns.Name)
		}
		for _, cr := range ns.CRs {
			if !(cr > 0 && cr <= 1) {
				return fmt.Errorf("scenario %q: node %s CR %g out of (0,1]", s.Name, ns.Name, cr)
			}
		}
		if !positiveFinite(float64(ns.SampleFreq)) {
			return fmt.Errorf("scenario %q: node %s sample rate %v is not positive and finite", s.Name, ns.Name, ns.SampleFreq)
		}
		for _, f := range ns.microFreqs() {
			if !positiveFinite(float64(f)) {
				return fmt.Errorf("scenario %q: node %s µC frequency %v is not positive and finite", s.Name, ns.Name, f)
			}
		}
		if ns.PayloadBytes < 0 || ns.PayloadBytes > ieee.MaxDataPayload {
			return fmt.Errorf("scenario %q: node %s payload override %d out of range [0,%d]",
				s.Name, ns.Name, ns.PayloadBytes, ieee.MaxDataPayload)
		}
		if err := sim.ValidateLink(ns.Link); err != nil {
			return fmt.Errorf("scenario %q: node %s: %w", s.Name, ns.Name, err)
		}
		if err := ns.Platform.Validate(); err != nil {
			return fmt.Errorf("scenario %q: node %s: %w", s.Name, ns.Name, err)
		}
	}
	if len(s.BeaconOrders) == 0 || len(s.SFOGaps) == 0 || len(s.Payloads) == 0 {
		return fmt.Errorf("scenario %q: empty MAC axis (need beacon orders, SFO gaps and payloads)", s.Name)
	}
	for _, bo := range s.BeaconOrders {
		if bo < 0 || bo > ieee.MaxOrder {
			return fmt.Errorf("scenario %q: beacon order %d out of [0,%d]", s.Name, bo, ieee.MaxOrder)
		}
	}
	for _, gap := range s.SFOGaps {
		if gap < 0 {
			return fmt.Errorf("scenario %q: negative SFO gap %d", s.Name, gap)
		}
	}
	for _, p := range s.Payloads {
		if p < 1 || p > ieee.MaxDataPayload {
			return fmt.Errorf("scenario %q: payload %d out of [1,%d]", s.Name, p, ieee.MaxDataPayload)
		}
	}
	if !(s.Theta >= 0 && !math.IsInf(s.Theta, 1)) {
		return fmt.Errorf("scenario %q: balance weight ϑ=%g is not non-negative and finite", s.Name, s.Theta)
	}
	if per := s.Traffic.PacketErrorRate; !(per >= 0 && per < 1) {
		return fmt.Errorf("scenario %q: packet error rate %g out of [0,1)", s.Name, per)
	}
	if s.Traffic.BlockSamples < 0 {
		return fmt.Errorf("scenario %q: negative block size %d", s.Name, s.Traffic.BlockSamples)
	}
	if !positiveFinite(float64(s.SimDuration)) {
		return fmt.Errorf("scenario %q: sim duration %v is not positive and finite", s.Name, s.SimDuration)
	}
	return nil
}

// positiveFinite reports whether x lies in (0, +Inf); NaN does not.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
