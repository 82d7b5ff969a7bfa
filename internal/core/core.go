// Package core implements the paper's primary contribution: a system-level
// analytical model of wireless body sensor networks that evaluates a full
// network configuration — energy, application quality and delay — in
// microseconds, fast enough to drive design-space exploration where a
// packet-level simulation would take minutes per point.
//
// The model is layered exactly as in the paper:
//
//   - an abstract MAC characterization (§3.2): data overhead Ω, control
//     message volumes Ψ, timing overhead Δ_control and a base time unit δ,
//     plus the transmission-interval assignment problem of Eqs. 1–2;
//   - a node model (§3.3): sensing (Eq. 3), application (the h/k/e triple
//     from the app package), microcontroller (Eq. 4), memory (Eq. 5) and
//     radio (Eq. 6) energies composed into E_node (Eq. 7);
//   - network-level metrics (§3.4): mean-plus-dispersion combinations
//     (Eq. 8) of per-node energy, quality and delay.
//
// All flows are per-second normalized: stream rates in bytes per second,
// energies in joules per second (watts), transmission intervals in seconds
// of channel time per second of wall-clock time.
package core

import (
	"errors"
	"fmt"

	"wsndse/internal/units"
)

// MAC is the abstract medium-access characterization of §3.2. A concrete
// MAC (the beacon-enabled IEEE 802.15.4 of the case study, a generic TDMA,
// or the statistical CSMA/CA extension) maps its protocol parameters χ_mac
// onto these quantities.
type MAC interface {
	// Name identifies the protocol.
	Name() string

	// DataOverhead is Ω(φ_out, χ_mac): the extra bytes per second
	// (headers, checksums) needed to carry a φ_out B/s output stream.
	DataOverhead(phiOut units.BytesPerSecond) units.BytesPerSecond

	// ControlDown is Ψ_c→n(χ_mac): control traffic received by a node
	// (beacons, acknowledgements) in B/s, given the node's output rate.
	ControlDown(phiOut units.BytesPerSecond) units.BytesPerSecond

	// ControlUp is Ψ_n→c(χ_mac): control traffic sent by a node beyond
	// its data stream, in B/s.
	ControlUp(phiOut units.BytesPerSecond) units.BytesPerSecond

	// ControlTime is the structural part of Δ_control(χ_mac): the
	// fraction of every second during which the channel is unavailable
	// to node payload transmissions (beacons, contention periods,
	// inactive portions). Together with unallocated capacity it
	// completes Eq. 2: Σ Δ_tx + Δ_control = 1.
	ControlTime() float64

	// Quantum is the per-second transmission-time quantum δ: assigned
	// intervals Δ_tx are integer multiples of it (Eq. 1's k·δ after
	// per-second normalization).
	Quantum() float64

	// Capacity bounds Σ Δ_tx, the total per-second channel time
	// assignable to nodes (e.g. 7/16 · SD/BI for 802.15.4 GTSs).
	Capacity() float64

	// TxTime is T_tx(φ_out + Ω): the seconds of channel time per second
	// needed to deliver the node's stream, including every per-packet
	// cost the physical radio imposes inside the node's interval
	// (PHY encapsulation, turnaround, acknowledgement, inter-frame
	// spacing).
	TxTime(phiOut units.BytesPerSecond) float64

	// AirOverheadUp and AirOverheadDown are the PHY encapsulation rates
	// (preamble/SFD/PHR bytes per second) transmitted by, respectively
	// received at, the node. The paper folds these into its calibrated
	// per-bit energies; with an explicit physical layer they appear as
	// separate terms of the radio energy.
	AirOverheadUp(phiOut units.BytesPerSecond) units.BytesPerSecond
	AirOverheadDown(phiOut units.BytesPerSecond) units.BytesPerSecond
}

// QuantaFloor is implemented by MACs whose protocol imposes a minimum
// interval size beyond the average-rate demand of Eq. 1 — for 802.15.4
// GTSs, a window must fit at least one whole packet service.
// AssignHeteroInto consults it when present.
type QuantaFloor interface {
	MinQuanta(phiOut units.BytesPerSecond) int
}

// DelayBound is implemented by MACs that can bound the data delay d(χ_mac)
// of §3.2 analytically, like the 802.15.4 GTS worst case of Eq. 9.
type DelayBound interface {
	// WorstCaseDelay bounds the delay of node n's data given every
	// node's assigned transmission interval (per-second normalized).
	// The result is in seconds.
	WorstCaseDelay(deltaTx []float64, n int) units.Seconds
}

// InfeasibleCode says which constraint an InfeasibleError reports.
type InfeasibleCode uint8

const (
	// CodeOther is a constraint outside the model's own four; Reason
	// carries the formatted text (see Infeasible).
	CodeOther InfeasibleCode = iota
	// CodeGTSSlots: Nodes nodes exceed the Limit guaranteed time slots
	// of one superframe.
	CodeGTSSlots
	// CodeCapacity: the assigned channel time Need (s/s) exceeds MAC's
	// capacity Capacity (s/s) for Nodes nodes.
	CodeCapacity
	// CodeDutyCycle: App on Node needs a duty cycle of Need (a fraction)
	// at microcontroller clock Freq.
	CodeDutyCycle
	// CodeRAM: App's working set on Node, Need bytes, exceeds the
	// platform's Limit bytes of RAM.
	CodeRAM
)

// InfeasibleError marks a configuration that violates a physical or
// protocol constraint: duty cycle above 100 %, GTS capacity exhausted,
// memory footprint beyond the platform, and so on. The DSE layer treats
// these as constraint violations rather than hard failures.
//
// The model reports its four constraints as a Code plus the numbers and
// names behind them, and formats them only in Error: the search hot path
// meets an infeasible configuration for about one evaluation in five, and
// building the error must stay a single small allocation there.
type InfeasibleError struct {
	Code     InfeasibleCode
	Node     string      // offending node (CodeDutyCycle, CodeRAM)
	App      string      // its application (CodeDutyCycle)
	MAC      string      // saturated MAC (CodeCapacity)
	Nodes    int         // network size (CodeGTSSlots, CodeCapacity)
	Limit    int         // GTS slots (CodeGTSSlots) or RAM bytes (CodeRAM)
	Need     float64     // channel time, duty cycle or working set
	Capacity float64     // assignable channel time (CodeCapacity)
	Freq     units.Hertz // microcontroller clock (CodeDutyCycle)
	Reason   string      // formatted text (CodeOther)
}

// Error implements the error interface.
func (e *InfeasibleError) Error() string { return "core: infeasible configuration: " + e.reason() }

func (e *InfeasibleError) reason() string {
	switch e.Code {
	case CodeGTSSlots:
		return fmt.Sprintf("%d nodes exceed the %d guaranteed time slots per superframe", e.Nodes, e.Limit)
	case CodeCapacity:
		return fmt.Sprintf("transmission demand %.6f s/s exceeds MAC %q capacity %.6f s/s (N=%d nodes)",
			e.Need, e.MAC, e.Capacity, e.Nodes)
	case CodeDutyCycle:
		return fmt.Sprintf("node %q: application %q duty cycle %.1f%% exceeds 100%% at f_µC=%v",
			e.Node, e.App, e.Need*100, e.Freq)
	case CodeRAM:
		return fmt.Sprintf("node %q: application working set %.0f B exceeds %d B RAM", e.Node, e.Need, e.Limit)
	}
	return e.Reason
}

// Infeasible builds a CodeOther InfeasibleError with formatting, for
// constraints the model itself does not check.
func Infeasible(format string, args ...any) error {
	return &InfeasibleError{Reason: fmt.Sprintf(format, args...)}
}

// IsInfeasible reports whether err marks an infeasible configuration.
func IsInfeasible(err error) bool {
	var ie *InfeasibleError
	return errors.As(err, &ie)
}
