package core

import (
	"fmt"

	"wsndse/internal/app"
	"wsndse/internal/platform"
	"wsndse/internal/units"
)

// Node is one WBSN node: a hardware platform running an application at a
// chosen microcontroller frequency — the χ_node of §3.3 together with the
// fixed platform parameters.
type Node struct {
	Name       string
	Platform   platform.Platform
	App        app.Application
	SampleFreq units.Hertz // f_s, fixed by the monitored signal (250 Hz for ECG)
	MicroFreq  units.Hertz // f_µC, a design-space knob
}

// Validate checks the node's static consistency.
func (n *Node) Validate() error {
	if n.App == nil {
		return fmt.Errorf("core: node %q has no application", n.Name)
	}
	if n.SampleFreq <= 0 {
		return fmt.Errorf("core: node %q has non-positive sample rate %v", n.Name, n.SampleFreq)
	}
	if n.MicroFreq <= 0 {
		return fmt.Errorf("core: node %q has non-positive µC frequency %v", n.Name, n.MicroFreq)
	}
	return n.Platform.Validate()
}

// InputRate is φ_in = f_s · L_adc (§3.3).
func (n *Node) InputRate() units.BytesPerSecond {
	return n.Platform.InputRate(n.SampleFreq)
}

// OutputRate is φ_out = h(φ_in, χ_node).
func (n *Node) OutputRate() units.BytesPerSecond {
	return n.App.OutputRate(n.InputRate())
}

// EnergyBreakdown is the per-second energy of one node, split by the
// model's terms. Total is Eq. 7's E_node.
type EnergyBreakdown struct {
	Sensor units.Watts // Eq. 3
	Micro  units.Watts // Eq. 4
	Memory units.Watts // Eq. 5
	Radio  units.Watts // Eq. 6
	Total  units.Watts // Eq. 7
}

// Energy evaluates the node model of §3.3 under the given MAC. It returns
// an InfeasibleError when the application cannot complete on the
// microcontroller (duty cycle above 100 %, the condition that rules out
// DWT at 1 MHz in the paper's Figure 3) or when the working set exceeds
// the platform memory.
func (n *Node) Energy(mac MAC) (EnergyBreakdown, error) {
	phiIn := n.InputRate()
	return n.energy(mac, phiIn, n.App.OutputRate(phiIn))
}

// energy is Energy with the node's streams supplied by the caller: phiIn
// must equal n.InputRate() and phiOut n.OutputRate().
func (n *Node) energy(mac MAC, phiIn, phiOut units.BytesPerSecond) (EnergyBreakdown, error) {
	eb, err := n.LocalEnergy(phiIn)
	if err != nil {
		return eb, err
	}
	eb.Radio = n.RadioPower(mac, phiOut)
	// Eq. 7: LocalEnergy's Total already holds the first three terms.
	eb.Total += eb.Radio
	return eb, nil
}

// LocalEnergy is the part of the node model the MAC does not touch: the
// §3.3 constraints on the application's usage, then Eqs. 3–5 at the
// node's application and µC frequency, with Total their sum and Radio
// zero. Energy adds Eq. 6 to it. A compiled evaluator tabulates it per
// (application, f_µC) point; a table shared by several nodes keeps only
// whether it failed, because the error names the node.
func (n *Node) LocalEnergy(phiIn units.BytesPerSecond) (EnergyBreakdown, error) {
	var eb EnergyBreakdown
	usage := n.App.Usage(phiIn, n.MicroFreq)
	if usage.Duty > 1 {
		return eb, &InfeasibleError{Code: CodeDutyCycle, Node: n.Name, App: n.App.Name(), Need: usage.Duty, Freq: n.MicroFreq}
	}
	if usage.Duty < 0 {
		return eb, fmt.Errorf("core: node %q: negative duty cycle %g", n.Name, usage.Duty)
	}
	if usage.MemoryBytes > float64(n.Platform.Memory.SizeBytes) {
		return eb, &InfeasibleError{Code: CodeRAM, Node: n.Name, Need: usage.MemoryBytes, Limit: n.Platform.Memory.SizeBytes}
	}

	// Eq. 3: sensing.
	eb.Sensor = n.Platform.Sensor.Power(n.SampleFreq)
	// Eq. 4: microcontroller.
	eb.Micro = n.Platform.Micro.Power(usage.Duty, n.MicroFreq)
	// Eq. 5: memory.
	eb.Memory = n.Platform.Memory.Power(usage.AccessesPerSecond, usage.MemoryBytes)
	eb.Total = eb.Sensor + eb.Micro + eb.Memory
	return eb, nil
}

// RadioPower is Eq. 6, the node's radio power for a φ_out B/s stream
// under mac. The MAC-level terms follow the equation exactly; the
// AirOverhead terms account for PHY encapsulation, which the paper
// absorbs into its calibrated per-bit energies.
func (n *Node) RadioPower(mac MAC, phiOut units.BytesPerSecond) units.Watts {
	etx := float64(n.Platform.Radio.EnergyPerBitTx())
	erx := float64(n.Platform.Radio.EnergyPerBitRx())
	up := float64(phiOut) + float64(mac.DataOverhead(phiOut)) + float64(mac.ControlUp(phiOut)) +
		float64(mac.AirOverheadUp(phiOut))
	down := float64(mac.ControlDown(phiOut)) + float64(mac.AirOverheadDown(phiOut))
	// The per-bit terms follow Eq. 6; the standby floor is the radio's
	// deep-sleep draw, which a duty-cycled node pays essentially all
	// the time (a calibrated model absorbs it into its constants; with
	// explicit hardware coefficients it appears as its own term).
	// Transition costs — ramp-ups and beacon guard listening — remain
	// unmodeled, and are a deliberate source of the model-vs-device
	// estimation error the paper reports.
	standby := float64(n.Platform.Radio.SleepPower)
	return units.Watts(8*up*etx + 8*down*erx + standby)
}
