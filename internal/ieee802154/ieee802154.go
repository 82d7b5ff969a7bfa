// Package ieee802154 provides the timing and frame-geometry constants of
// the IEEE 802.15.4-2006 standard (2.4 GHz O-QPSK PHY, beacon-enabled MAC)
// that both the analytical model and the packet-level simulator share.
//
// The paper's case study (§4.2) uses the beacon-enabled mode: the
// coordinator broadcasts a beacon every beacon interval BI, the active
// portion of the superframe lasts SD and is divided into 16 slots, and up
// to 7 of those slots can be granted to nodes as guaranteed time slots
// (GTSs) forming the contention-free period.
package ieee802154

import (
	"fmt"

	"wsndse/internal/numeric"
	"wsndse/internal/units"
)

// PHY constants for the 2.4 GHz band.
const (
	// SymbolRate is 62.5 ksymbol/s; each O-QPSK symbol carries 4 bits.
	SymbolRate    = 62500
	BitsPerSymbol = 4
	// BitRate is the on-air data rate: 250 kbit/s.
	BitRate units.BitsPerSecond = SymbolRate * BitsPerSymbol

	// SymbolDuration is 16 µs.
	SymbolDuration units.Seconds = 1.0 / SymbolRate
)

// MAC timing constants (all in symbols, per the standard).
const (
	ABaseSlotDuration       = 60                                      // symbols per slot at SO = 0
	ANumSuperframeSlots     = 16                                      // slots in the active portion
	ABaseSuperframeDuration = ABaseSlotDuration * ANumSuperframeSlots // 960 symbols = 15.36 ms
	ATurnaroundTimeSymbols  = 12                                      // RX↔TX turnaround
	AMinSIFSSymbols         = 12                                      // short inter-frame spacing
	AMinLIFSSymbols         = 40                                      // long inter-frame spacing
	AMaxSIFSFrameSize       = 18                                      // MPDUs above this use LIFS
	AUnitBackoffPeriod      = 20                                      // symbols per CSMA backoff unit
)

// Frame geometry in bytes. The MAC data overhead follows the paper's
// accounting (§4.2): 11 header bytes plus a 2-byte checksum per data frame,
// and a 4-byte acknowledgement.
const (
	PHYOverheadBytes  = 6                                    // 4 preamble + 1 SFD + 1 PHR
	MACHeaderBytes    = 11                                   // data-frame MHR as counted by the paper
	FCSBytes          = 2                                    // frame check sequence
	MACOverheadBytes  = MACHeaderBytes + FCSBytes            // the paper's "13 bytes"
	AckBytes          = 4                                    // acknowledgement MPDU as counted by the paper
	AMaxPHYPacketSize = 127                                  // maximum MPDU size
	MaxDataPayload    = AMaxPHYPacketSize - MACOverheadBytes // 114 bytes

	// Beacon geometry: a fixed MHR+payload portion plus one descriptor
	// per allocated GTS.
	BeaconBaseBytes    = 15
	GTSDescriptorBytes = 3
)

// MaxGTS is the maximum number of guaranteed time slots per superframe.
const MaxGTS = 7

// MaxOrder bounds BO and SO (values above 14 disable beaconing, which the
// beacon-enabled mode does not use).
const MaxOrder = 14

// CAPSlots is the minimum number of slots the standard reserves for the
// contention access period: 16 slots minus the at-most-7 GTSs.
const CAPSlots = ANumSuperframeSlots - MaxGTS

// Symbols converts a symbol count to seconds.
func Symbols(n int) units.Seconds {
	return units.Seconds(float64(n) / SymbolRate)
}

// AirTime is the on-air duration of `bytes` bytes at the PHY bit rate.
func AirTime(bytes float64) units.Seconds {
	return units.Seconds(bytes * 8 / float64(BitRate))
}

// DataFrameAirBytes is the total on-air size of a data frame carrying
// `payload` MAC payload bytes: payload + MAC overhead + PHY overhead.
func DataFrameAirBytes(payload int) int {
	return payload + MACOverheadBytes + PHYOverheadBytes
}

// DataFrameAirTime is the on-air duration of a data frame with the given
// MAC payload size.
func DataFrameAirTime(payload int) units.Seconds {
	return AirTime(float64(DataFrameAirBytes(payload)))
}

// AckAirTime is the on-air duration of an acknowledgement frame (MPDU plus
// PHY overhead).
func AckAirTime() units.Seconds {
	return AirTime(float64(AckBytes + PHYOverheadBytes))
}

// BeaconBytes is the MPDU size of a beacon announcing gtsCount GTS
// descriptors. This is the L_beacon of the paper's control-overhead term.
func BeaconBytes(gtsCount int) int {
	return BeaconBaseBytes + gtsCount*GTSDescriptorBytes
}

// BeaconAirTime is the on-air duration of such a beacon.
func BeaconAirTime(gtsCount int) units.Seconds {
	return AirTime(float64(BeaconBytes(gtsCount) + PHYOverheadBytes))
}

// IFS returns the inter-frame spacing required after an MPDU of the given
// size: short frames use SIFS, long frames LIFS.
func IFS(mpduBytes int) units.Seconds {
	if mpduBytes <= AMaxSIFSFrameSize {
		return Symbols(AMinSIFSSymbols)
	}
	return Symbols(AMinLIFSSymbols)
}

// Turnaround is the RX↔TX switching time.
func Turnaround() units.Seconds { return Symbols(ATurnaroundTimeSymbols) }

// SuperframeConfig is the (BO, SO) pair of the beacon-enabled MAC — the
// BCO/SFO parameters of the paper's χ_mac.
type SuperframeConfig struct {
	BeaconOrder     int // BO: beacon interval exponent
	SuperframeOrder int // SO: active-portion exponent
}

// SuperframeWithGap decodes the design spaces' relative SFO gene:
// SFO = BO − gap, floored at 0 so every index combination is structurally
// valid. Both the casestudy and scenario problems (and their compiled
// pipelines) share this one decode rule.
func SuperframeWithGap(bo, gap int) SuperframeConfig {
	so := bo - gap
	if so < 0 {
		so = 0
	}
	return SuperframeConfig{BeaconOrder: bo, SuperframeOrder: so}
}

// Validate enforces 0 ≤ SO ≤ BO ≤ 14.
func (c SuperframeConfig) Validate() error {
	if c.SuperframeOrder < 0 || c.BeaconOrder > MaxOrder || c.SuperframeOrder > c.BeaconOrder {
		return fmt.Errorf("ieee802154: invalid superframe config BO=%d SO=%d (need 0 ≤ SO ≤ BO ≤ %d)",
			c.BeaconOrder, c.SuperframeOrder, MaxOrder)
	}
	return nil
}

// BeaconInterval returns BI = aBaseSuperframeDuration · 2^BO.
func (c SuperframeConfig) BeaconInterval() units.Seconds {
	return Symbols(ABaseSuperframeDuration << uint(c.BeaconOrder))
}

// SuperframeDuration returns SD = aBaseSuperframeDuration · 2^SO (the
// active portion).
func (c SuperframeConfig) SuperframeDuration() units.Seconds {
	return Symbols(ABaseSuperframeDuration << uint(c.SuperframeOrder))
}

// SlotDuration returns SD/16, one superframe slot — the paper's base time
// unit δ before per-second normalization.
func (c SuperframeConfig) SlotDuration() units.Seconds {
	return c.SuperframeDuration() / ANumSuperframeSlots
}

// InactiveDuration returns BI − SD, the inactive portion of each beacon
// interval during which every device may sleep.
func (c SuperframeConfig) InactiveDuration() units.Seconds {
	return c.BeaconInterval() - c.SuperframeDuration()
}

// DutyCycle returns SD/BI, the fraction of time the network is active.
func (c SuperframeConfig) DutyCycle() float64 {
	return float64(c.SuperframeDuration()) / float64(c.BeaconInterval())
}

// GTSCapacityPerSecond returns the paper's GTS budget Σ Δtx ≤ 7/16 · SD/BI
// expressed per second of wall-clock time: the at-most-7 GTS slots of each
// superframe, amortized over the beacon interval.
func (c SuperframeConfig) GTSCapacityPerSecond() float64 {
	return float64(MaxGTS) / ANumSuperframeSlots * c.DutyCycle()
}

// SlotsPerSecond returns how much wall-clock time one GTS slot contributes
// per second: (SD/16)/BI. Transmission intervals Δtx are integer multiples
// of this quantum.
func (c SuperframeConfig) SlotPerSecond() float64 {
	return float64(c.SlotDuration()) / float64(c.BeaconInterval())
}

// String renders the configuration compactly.
func (c SuperframeConfig) String() string {
	return fmt.Sprintf("BO=%d/SO=%d (BI=%v, SD=%v)",
		c.BeaconOrder, c.SuperframeOrder, c.BeaconInterval(), c.SuperframeDuration())
}

// PacketService is the full channel time one data frame occupies inside a
// GTS: RX→TX turnaround, the frame itself, the acknowledgement, and the
// inter-frame spacing.
func PacketService(payloadBytes int) units.Seconds {
	return Turnaround() + DataFrameAirTime(payloadBytes) + AckAirTime() +
		IFS(payloadBytes+MACOverheadBytes)
}

// GTSDemandPerSecond is T_tx(φ_out + Ω) for the GTS MAC: the channel time
// per second needed to carry a φ_out B/s stream in L_payload-byte frames,
// including PHY encapsulation and per-packet costs. This is the
// physical-radio term of the model's Eq. 1.
func GTSDemandPerSecond(payloadBytes int, phiOut float64) float64 {
	if phiOut <= 0 {
		return 0
	}
	packets := phiOut / float64(payloadBytes)
	macBytes := phiOut * (1 + float64(MACOverheadBytes)/float64(payloadBytes))
	air := float64(AirTime(macBytes + packets*float64(PHYOverheadBytes)))
	perPacket := float64(Turnaround()) + float64(AckAirTime()) +
		float64(IFS(payloadBytes+MACOverheadBytes))
	return air + packets*perPacket
}

// GTSSlotsFor sizes a node's guaranteed time slots: the smallest k
// satisfying both the average-rate demand of Eq. 1 (k·δ ≥ T_tx) and the
// whole-packet constraint — a window serves only complete packet services,
// so it must fit ⌈packets-per-superframe⌉ of them. The second constraint
// is what a divisible-time model misses: without it, fractional service
// capacity is silently lost at every window boundary and queues diverge.
func GTSSlotsFor(sf SuperframeConfig, payloadBytes int, phiOut float64) int {
	if phiOut <= 0 {
		return 0
	}
	slotPS := sf.SlotPerSecond()
	k := numeric.CeilCount(GTSDemandPerSecond(payloadBytes, phiOut)/slotPS - 1e-12)
	if k < 1 {
		k = 1
	}
	service := float64(PacketService(payloadBytes))
	slotLen := float64(sf.SlotDuration())
	packetsPerSF := phiOut * float64(sf.BeaconInterval()) / float64(payloadBytes)
	req := numeric.CeilCount(packetsPerSF - 1e-9)
	if req < 1 {
		req = 1
	}
	if minK := numeric.CeilCount(float64(req)*service/slotLen - 1e-12); k < minK {
		k = minK
	}
	return k
}
