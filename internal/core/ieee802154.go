package core

import (
	"fmt"
	"math"

	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/units"
)

// GTSMac maps the beacon-enabled IEEE 802.15.4 MAC onto the abstract model
// exactly as §4.2 does:
//
//   - Ω(φ_out) = 13 · φ_out / L_payload (11 header + 2 checksum bytes per
//     data frame);
//   - Ψ_n→c = 0 (no uplink control traffic);
//   - Ψ_c→n = 4 · φ_out / L_payload + L_beacon / BI (one acknowledgement
//     per frame plus the periodic beacon);
//   - δ = (SD/16)/BI per second (one GTS slot per beacon interval);
//   - Σ Δ_tx ≤ 7/16 · SD/BI (at most 7 GTSs per superframe);
//   - the worst-case delay bound of Eq. 9.
type GTSMac struct {
	Superframe   ieee.SuperframeConfig
	PayloadBytes int // L_payload, MAC payload per data frame
	NumNodes     int // sizes the beacon's GTS descriptor list
}

// NewGTSMac validates the χ_mac parameters and builds the MAC model.
func NewGTSMac(sf ieee.SuperframeConfig, payloadBytes, numNodes int) (*GTSMac, error) {
	if err := sf.Validate(); err != nil {
		return nil, err
	}
	if payloadBytes < 1 || payloadBytes > ieee.MaxDataPayload {
		return nil, fmt.Errorf("core: GTS MAC payload %d out of range [1,%d]",
			payloadBytes, ieee.MaxDataPayload)
	}
	if numNodes < 1 {
		return nil, fmt.Errorf("core: GTS MAC needs at least one node, got %d", numNodes)
	}
	if numNodes > ieee.MaxGTS {
		return nil, &InfeasibleError{Code: CodeGTSSlots, Nodes: numNodes, Limit: ieee.MaxGTS}
	}
	return &GTSMac{Superframe: sf, PayloadBytes: payloadBytes, NumNodes: numNodes}, nil
}

// GTSMacEntry is one pre-built χ_mac grid point: the MAC model or the
// error its construction produced, so a compiled evaluator can report per
// configuration exactly what a fresh NewGTSMac call would (including
// infeasible node counts).
type GTSMacEntry struct {
	MAC *GTSMac
	Err error
}

// BuildGTSMacGrid pre-builds the (BO × SFO gap × payload) MAC grid the
// compiled evaluation pipelines index into: entry
// (b·len(gaps) + g)·len(payloads) + p holds the MAC for
// (bos[b], gaps[g], payloads[p]) under the shared SFO = max(BO − gap, 0)
// decode rule (ieee.SuperframeWithGap). A single-payload list builds the
// (BO × SFO gap) view grid of a payload-override node.
func BuildGTSMacGrid(bos, gaps, payloads []int, numNodes int) []GTSMacEntry {
	grid := make([]GTSMacEntry, 0, len(bos)*len(gaps)*len(payloads))
	for _, bo := range bos {
		for _, gap := range gaps {
			sf := ieee.SuperframeWithGap(bo, gap)
			for _, pay := range payloads {
				mac, err := NewGTSMac(sf, pay, numNodes)
				grid = append(grid, GTSMacEntry{MAC: mac, Err: err})
			}
		}
	}
	return grid
}

// Name identifies the MAC.
func (m *GTSMac) Name() string { return "ieee802.15.4-gts" }

// packetsPerSecond is the (fractional) frame rate needed for a φ_out
// stream.
func (m *GTSMac) packetsPerSecond(phiOut units.BytesPerSecond) float64 {
	return float64(phiOut) / float64(m.PayloadBytes)
}

// DataOverhead implements Ω = 13·φ_out/L_payload.
func (m *GTSMac) DataOverhead(phiOut units.BytesPerSecond) units.BytesPerSecond {
	return units.BytesPerSecond(float64(ieee.MACOverheadBytes) * m.packetsPerSecond(phiOut))
}

// ControlUp implements Ψ_n→c = 0.
func (m *GTSMac) ControlUp(units.BytesPerSecond) units.BytesPerSecond { return 0 }

// beaconBytes is L_beacon for the configured GTS count.
func (m *GTSMac) beaconBytes() int { return ieee.BeaconBytes(m.NumNodes) }

// ControlDown implements Ψ_c→n = 4·φ_out/L_payload + L_beacon/BI.
func (m *GTSMac) ControlDown(phiOut units.BytesPerSecond) units.BytesPerSecond {
	acks := float64(ieee.AckBytes) * m.packetsPerSecond(phiOut)
	beacons := float64(m.beaconBytes()) / float64(m.Superframe.BeaconInterval())
	return units.BytesPerSecond(acks + beacons)
}

// AirOverheadUp is the PHY encapsulation transmitted by the node: 6 bytes
// per data frame.
func (m *GTSMac) AirOverheadUp(phiOut units.BytesPerSecond) units.BytesPerSecond {
	return units.BytesPerSecond(float64(ieee.PHYOverheadBytes) * m.packetsPerSecond(phiOut))
}

// AirOverheadDown is the PHY encapsulation received by the node: 6 bytes
// per acknowledgement and per beacon.
func (m *GTSMac) AirOverheadDown(phiOut units.BytesPerSecond) units.BytesPerSecond {
	perSecondFrames := m.packetsPerSecond(phiOut) + 1/float64(m.Superframe.BeaconInterval())
	return units.BytesPerSecond(float64(ieee.PHYOverheadBytes) * perSecondFrames)
}

// ControlTime is the structural Δ_control: beacon transmission, the
// contention-access period (at least 9 slots, unused in the case study)
// and the inactive portion, per second. Equivalently 1 − 7/16·SD/BI.
func (m *GTSMac) ControlTime() float64 { return 1 - m.Superframe.GTSCapacityPerSecond() }

// Quantum is δ: one slot per beacon interval, per-second normalized.
func (m *GTSMac) Quantum() float64 { return m.Superframe.SlotPerSecond() }

// Capacity is the GTS budget 7/16·SD/BI.
func (m *GTSMac) Capacity() float64 { return m.Superframe.GTSCapacityPerSecond() }

// TxTime is T_tx(φ_out + Ω): on-air time of the MAC stream plus per-frame
// PHY encapsulation, RX/TX turnaround, acknowledgement and inter-frame
// spacing — everything a GTS must be sized to contain.
func (m *GTSMac) TxTime(phiOut units.BytesPerSecond) float64 {
	return ieee.GTSDemandPerSecond(m.PayloadBytes, float64(phiOut))
}

// MinQuanta is the protocol floor on a node's interval: windows serve only
// whole packet services, so the slot count must satisfy the per-superframe
// packet arithmetic of ieee.GTSSlotsFor, not just the average-rate demand.
func (m *GTSMac) MinQuanta(phiOut units.BytesPerSecond) int {
	return ieee.GTSSlotsFor(m.Superframe, m.PayloadBytes, float64(phiOut))
}

// WorstCaseDelay implements Eq. 9: node n's data waits, in the worst case,
// for every other node's transmission interval plus the control overhead
// of the superframes those intervals span:
//
//	d^(n) ≤ Σ_{i≠n} Δ_tx^(i) + ⌈Σ_{i≠n} Δ_tx^(i) / CFP⌉ · Δ_control
//	       + Δ_tx^(n) + 2·T_svc.
//
// The sums are converted back to wall-clock seconds per superframe and
// CFP = 7 slots is the contention-free capacity of one superframe. Two
// instantiation choices, both documented deviations of detail rather than
// structure:
//
//   - Δ_control is the per-superframe time the channel is unavailable to
//     node payloads — beacon, CAP, inactive portion, and *unallocated*
//     GTS slots. Counting idle slots follows Eq. 2's definition of
//     Δ_control ("...or because the network is kept idle") and is what
//     makes the bound dominate a packet-level simulation: idle CFP slots
//     precede the allocated windows in the superframe layout and do delay
//     the tail-positioned GTSs.
//   - Δ_tx^(n) + 2·T_svc covers in-window effects: waiting behind the
//     node's own queued predecessors (at most one window's worth under a
//     feasible assignment), the just-missed-opportunity race — data
//     generated an instant too late to start service in the current
//     window — and the final service itself.
//
// The ceiling is floored at one superframe: even with no competing nodes,
// data generated right after the node's GTS waits through the next
// superframe's control phase.
func (m *GTSMac) WorstCaseDelay(deltaTx []float64, n int) units.Seconds {
	if n < 0 || n >= len(deltaTx) {
		return units.Seconds(math.NaN())
	}
	d := m.DelayTerms()
	var totalTx, ownTx float64
	for i, dtx := range deltaTx {
		slots := d.SlotTime(dtx)
		totalTx += slots
		if i == n {
			ownTx = slots
		}
	}
	return units.Seconds(d.Bound(totalTx, ownTx))
}

// DelayTerms holds what Eq. 9 reads of a MAC view: its superframe's slot
// length SD/16, quantum δ and beacon interval BI, and the view's own
// 2·T_svc term, all in seconds. Every view of one superframe shares the
// first three. WorstCaseDelay is SlotTime over every node's interval,
// then Bound; a compiled evaluator keeps the terms of each superframe and
// runs the same two steps for every node in one pass.
type DelayTerms struct {
	Slot, Quantum, BI, Service2 float64
}

// DelayTerms returns m's Eq. 9 constants.
func (m *GTSMac) DelayTerms() DelayTerms {
	return DelayTerms{
		Slot:     float64(m.Superframe.SlotDuration()),
		Quantum:  m.Superframe.SlotPerSecond(),
		BI:       float64(m.Superframe.BeaconInterval()),
		Service2: 2 * float64(ieee.PacketService(m.PayloadBytes)),
	}
}

// SlotTime is the wall-clock time per superframe of the slots an interval
// Δ_tx (per-second normalized) allocates. The conversion rounds it before
// a sum takes it in.
func (d DelayTerms) SlotTime(deltaTx float64) float64 {
	return float64(math.Round(deltaTx/d.Quantum) * d.Slot)
}

// Bound is Eq. 9 for a node whose slots take ownTx of the totalTx seconds
// that every node's slots take per superframe.
func (d DelayTerms) Bound(totalTx, ownTx float64) float64 {
	othersTx := totalTx - ownTx
	cfp := float64(ieee.MaxGTS) * d.Slot
	frames := math.Ceil(othersTx / cfp)
	if frames < 1 {
		frames = 1
	}
	controlPerSF := d.BI - totalTx
	if controlPerSF < 0 {
		controlPerSF = 0
	}
	return othersTx + frames*controlPerSF + ownTx + d.Service2
}

// String renders the full χ_mac.
func (m *GTSMac) String() string {
	return fmt.Sprintf("%s{%v, L=%dB, N=%d}", m.Name(), m.Superframe, m.PayloadBytes, m.NumNodes)
}
