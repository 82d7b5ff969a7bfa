package sim

import (
	"fmt"
	"math"

	"wsndse/internal/app"
	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/platform"
	"wsndse/internal/units"
)

// ArrivalModel selects how application output bytes enter the transmit
// queue.
type ArrivalModel int

// Arrival models.
const (
	// ArrivalDefault defers to the surrounding default: on a NodeConfig
	// it inherits the Config-level model, on a Config it means uniform.
	// Being the zero value, per-node overrides are strictly opt-in.
	ArrivalDefault ArrivalModel = iota
	// ArrivalUniform streams output bytes at the constant rate φ_out —
	// the paper's assumption ("the nature of data compression ... leads
	// to a uniform output rate", §4.2) under which the Eq. 9 delay
	// bound is valid.
	ArrivalUniform
	// ArrivalBlock releases a whole compressed block at once every
	// block period — the bursty behaviour of a block codec without
	// output smoothing. Provided for the ablation showing how the
	// delay bound degrades when the uniformity assumption breaks.
	ArrivalBlock
)

// String names the arrival model.
func (a ArrivalModel) String() string {
	switch a {
	case ArrivalDefault:
		return "default"
	case ArrivalUniform:
		return "uniform"
	case ArrivalBlock:
		return "block"
	default:
		return fmt.Sprintf("ArrivalModel(%d)", int(a))
	}
}

// LinkPhase is one piecewise-constant segment of a node's time-varying
// link quality: from Start onward (until the next phase) the node's frames
// are lost i.i.d. with probability PER. A schedule of phases models
// mobility — a relay carried across a ward sees its link to the
// coordinator degrade and recover as distance and shadowing change —
// without simulating radio propagation itself.
type LinkPhase struct {
	Start units.Seconds
	PER   float64
}

// ValidateLink checks a link schedule: phases strictly ascending in Start,
// starts non-negative, PERs in [0,1). Scenario validation and the sim
// share this so an invalid schedule can never reach the engine. Each check
// is written so that NaN fails it.
func ValidateLink(phases []LinkPhase) error {
	for i, ph := range phases {
		if !(ph.Start >= 0) {
			return fmt.Errorf("link phase %d start %v is not a non-negative time", i, ph.Start)
		}
		if i > 0 && !(ph.Start > phases[i-1].Start) {
			return fmt.Errorf("link phase %d start %v not after phase %d start %v",
				i, ph.Start, i-1, phases[i-1].Start)
		}
		if !(ph.PER >= 0 && ph.PER < 1) {
			return fmt.Errorf("link phase %d PER %g out of [0,1)", i, ph.PER)
		}
	}
	return nil
}

// NodeConfig describes one simulated node. Payload and arrival overrides
// make the star heterogeneous: a ward can mix ECG compressors shipping
// full frames, low-rate telemetry motes on short frames, and bursty
// block-codec nodes in one superframe.
type NodeConfig struct {
	Name       string
	Platform   platform.Platform
	App        app.Application
	SampleFreq units.Hertz
	MicroFreq  units.Hertz
	// Slots is the node's GTS allocation per superframe (the k^(n) of
	// the model's assignment).
	Slots int
	// PayloadBytes overrides the network payload L_payload for this
	// node's frames (0 inherits Config.PayloadBytes).
	PayloadBytes int
	// Arrival overrides the traffic model for this node
	// (ArrivalDefault inherits Config.Arrival).
	Arrival ArrivalModel
	// Link is the node's time-varying link schedule. Empty means the
	// link holds Config.PacketErrorRate for the whole run; otherwise the
	// node uses Config.PacketErrorRate before the first phase's Start
	// and each phase's PER from its Start onward.
	Link []LinkPhase
}

// payload resolves the node's effective frame payload.
func (n NodeConfig) payload(networkPayload int) int {
	if n.PayloadBytes > 0 {
		return n.PayloadBytes
	}
	return networkPayload
}

// arrival resolves the node's effective traffic model.
func (n NodeConfig) arrival(networkArrival ArrivalModel) ArrivalModel {
	if n.Arrival != ArrivalDefault {
		return n.Arrival
	}
	return networkArrival
}

// Config describes one simulation run.
type Config struct {
	Superframe   ieee.SuperframeConfig
	PayloadBytes int // L_payload
	Nodes        []NodeConfig

	// Duration is the simulated wall-clock time.
	Duration units.Seconds

	// Arrival selects the traffic model (uniform by default).
	Arrival ArrivalModel
	// BlockSamples sets the codec block size for ArrivalBlock
	// (default 512 samples).
	BlockSamples int

	// PacketErrorRate is the i.i.d. frame loss probability on the
	// channel; lost frames are retransmitted up to maxRetries (3) times.
	// The case study operates at 0 (§4.3).
	PacketErrorRate float64

	// Seed drives the channel's loss process.
	Seed int64
}

// The firmware of every simulated node.
const (
	// maxRetries bounds retransmissions per frame.
	maxRetries = 3
	// clockDriftPPM is the crystal tolerance the guard time, the
	// early-wakeup margin before each beacon, is derived from: the
	// drift over one beacon interval plus 32 µs.
	clockDriftPPM = 40
	// beaconProcCycles and packetProcCycles are the processing overheads
	// charged to the microcontroller per beacon and per transmitted
	// packet, on top of the application's cycle budget.
	beaconProcCycles = 600
	packetProcCycles = 350
)

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Arrival == ArrivalDefault {
		c.Arrival = ArrivalUniform
	}
	if c.BlockSamples == 0 {
		c.BlockSamples = 512
	}
	return c
}

// positiveFinite reports whether x lies in (0, +Inf); NaN does not.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Validate checks the configuration for consistency before a run. Every
// check is written so that NaN fails it, and the duration and frequencies
// must be finite: a NaN or infinite duration never ends the run, an
// infinite sample rate never advances it, and a NaN elsewhere silently
// corrupts the results.
func (c Config) Validate() error {
	if err := c.Superframe.Validate(); err != nil {
		return err
	}
	if c.PayloadBytes < 1 || c.PayloadBytes > ieee.MaxDataPayload {
		return fmt.Errorf("sim: payload %d out of range [1,%d]", c.PayloadBytes, ieee.MaxDataPayload)
	}
	if len(c.Nodes) == 0 {
		return fmt.Errorf("sim: no nodes")
	}
	if !positiveFinite(float64(c.Duration)) {
		return fmt.Errorf("sim: duration %v must be positive and finite", c.Duration)
	}
	if !(c.PacketErrorRate >= 0 && c.PacketErrorRate < 1) {
		return fmt.Errorf("sim: packet error rate %g out of [0,1)", c.PacketErrorRate)
	}
	if c.Arrival != ArrivalDefault && c.Arrival != ArrivalUniform && c.Arrival != ArrivalBlock {
		return fmt.Errorf("sim: unknown arrival model %v", c.Arrival)
	}
	totalSlots := 0
	for i, n := range c.Nodes {
		if n.App == nil {
			return fmt.Errorf("sim: node %d (%s) has no application", i, n.Name)
		}
		if !positiveFinite(float64(n.SampleFreq)) || !positiveFinite(float64(n.MicroFreq)) {
			return fmt.Errorf("sim: node %d (%s) frequencies %v, %v must be positive and finite",
				i, n.Name, n.SampleFreq, n.MicroFreq)
		}
		if n.Slots < 0 {
			return fmt.Errorf("sim: node %d (%s) has negative slot count", i, n.Name)
		}
		if n.PayloadBytes < 0 || n.PayloadBytes > ieee.MaxDataPayload {
			return fmt.Errorf("sim: node %d (%s) payload override %d out of range [0,%d]",
				i, n.Name, n.PayloadBytes, ieee.MaxDataPayload)
		}
		if a := n.Arrival; a != ArrivalDefault && a != ArrivalUniform && a != ArrivalBlock {
			return fmt.Errorf("sim: node %d (%s) has unknown arrival model %v", i, n.Name, a)
		}
		if err := ValidateLink(n.Link); err != nil {
			return fmt.Errorf("sim: node %d (%s): %w", i, n.Name, err)
		}
		if err := n.Platform.Validate(); err != nil {
			return fmt.Errorf("sim: node %d (%s): %w", i, n.Name, err)
		}
		totalSlots += n.Slots
	}
	if totalSlots > ieee.MaxGTS {
		return fmt.Errorf("sim: %d GTS slots allocated, protocol allows %d", totalSlots, ieee.MaxGTS)
	}
	return nil
}

// EnergyAccount is the integrated per-node energy split, in joules over
// the run, with the average power alongside.
type EnergyAccount struct {
	Sensor units.Joules
	Micro  units.Joules
	Memory units.Joules
	Radio  units.Joules
	Total  units.Joules
}

// Power converts the account to average watts over the given duration.
func (e EnergyAccount) Power(d units.Seconds) PowerBreakdown {
	return PowerBreakdown{
		Sensor: e.Sensor.PerSecond(d),
		Micro:  e.Micro.PerSecond(d),
		Memory: e.Memory.PerSecond(d),
		Radio:  e.Radio.PerSecond(d),
		Total:  e.Total.PerSecond(d),
	}
}

// PowerBreakdown is the average-power view of an EnergyAccount, directly
// comparable with the model's EnergyBreakdown.
type PowerBreakdown struct {
	Sensor, Micro, Memory, Radio, Total units.Watts
}

// DelayStats summarizes per-packet delays (generation of the first byte to
// acknowledged delivery).
type DelayStats struct {
	Count int
	Mean  units.Seconds
	Max   units.Seconds
	P95   units.Seconds
}

// NodeResult is the per-node outcome of a run.
type NodeResult struct {
	Name           string
	Energy         EnergyAccount
	Power          PowerBreakdown
	Delay          DelayStats
	PacketsSent    int // distinct frames delivered
	Retries        int // extra transmission attempts
	PacketsDropped int // frames abandoned after maxRetries (3) retransmissions
	BytesDelivered int
	QueuePeak      int // packets
	RadioStateTime map[RadioState]units.Seconds
	Ramps          int
}

// Result is the outcome of one simulation run.
type Result struct {
	Duration    units.Seconds
	Nodes       []NodeResult
	BeaconsSent int
	// Events counts the discrete events of the run, the numerator of the
	// events-per-second throughput figure: the events the engine
	// dispatched plus the radio transitions the nodes' timelines applied,
	// each at or before Duration.
	Events int64
	// Stable reports whether every node's queue drained periodically;
	// false means the GTS allocation cannot carry the offered load and
	// delays/queues grew through the run.
	Stable bool
}
