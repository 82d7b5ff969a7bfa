package sim

import (
	"fmt"
	"math"
	"math/rand"

	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/numeric"
	"wsndse/internal/units"
)

// packet is one queued MAC frame. The delay of a packet is measured from
// `created` — the instant the frame is handed to the MAC layer — to its
// acknowledged delivery, which is the quantity the Eq. 9 bound (and a
// Castalia-style simulation) speaks about.
type packet struct {
	payloadBytes int
	created      float64
	attempts     int
}

// realCycler is implemented by applications whose device-level cycle count
// differs from the model's characterization (e.g. the CR-sensitive
// compressors). The simulator prefers it over the model-side Usage.
type realCycler interface {
	RealCyclesPerSecond() float64
}

// simNode is the runtime state of one node.
type simNode struct {
	cfg NodeConfig
	idx int

	radio     *radioAccount
	busyUntil float64 // last scheduled radio state change
	// radioq is the node's radio timeline: transitions scheduled but not
	// yet applied to radio, sorted by (time, seq).
	radioq []transition

	phiOut    float64      // B/s
	payload   int          // effective frame payload (per-node override resolved)
	arrival   ArrivalModel // effective traffic model
	startSlot int          // first GTS slot in the superframe
	endSlot   int          // one past the last GTS slot

	// The MAC queue is a value-typed slice drained from qhead, so enqueue
	// and dequeue recycle the same backing array instead of allocating a
	// boxed packet per frame.
	queue     []packet
	qhead     int
	queuePeak int

	delays         []float64
	packetsSent    int
	retries        int
	dropped        int
	bytesDelivered int

	extraCycles float64 // beacon + packet processing on the µC

	// arrival-process state (resolved once in startArrivals)
	interval   float64 // uniform: seconds between frames
	period     float64 // block: seconds between blocks
	blockBytes float64 // block: bytes per block
	carryBytes float64
	// linkIdx is the index of the active LinkPhase; -1 before the first
	// phase starts (the base PER applies). Simulation time is monotone,
	// so the cursor only ever advances.
	linkIdx int
	// queue-length samples at each beacon, for the stability verdict
	queueSamples []int
}

// radioCap sizes each node's radio timeline.
const radioCap = 8

// transition is one radio state change on a node's timeline, keyed like an
// engine event.
type transition struct {
	time  float64
	seq   int64
	state RadioState
}

func (n *simNode) queueLen() int { return len(n.queue) - n.qhead }

func (n *simNode) queueHead() *packet { return &n.queue[n.qhead] }

func (n *simNode) popQueue() {
	n.qhead++
	if n.qhead == len(n.queue) {
		n.queue = n.queue[:0]
		n.qhead = 0
	} else if n.qhead > 64 && n.qhead*2 > len(n.queue) {
		// Compact so a queue that never fully drains cannot grow its
		// backing array without bound.
		n.queue = n.queue[:copy(n.queue, n.queue[n.qhead:])]
		n.qhead = 0
	}
}

// simulation bundles the run state.
type simulation struct {
	cfg     Config
	eng     *Engine
	rng     *rand.Rand
	nodes   []*simNode
	beacons int
	// transitions counts the radio transitions applied, the events the
	// radio timelines take off the engine's heap.
	transitions int64

	bi, slot  float64
	guard     float64
	beaconAir float64
}

// Event kinds. Everything the simulation schedules is state
// reconstructible from (kind, node, arg), so the hot loop allocates neither
// closures nor boxed events. Radio transitions are not events: they go on
// the node's own timeline (radioAt).
const (
	evBeaconEnd    uint8 = iota // beacon received: bookkeeping, then sleep
	evTxWindow                  // GTS window (re)entry; arg: window end
	evAckDone                   // ack wait finished; arg: window end
	evBeaconTick                // coordinator beacon counter (node < 0)
	evSuperframe                // chain the next superframe; arg: its index
	evArrival                   // uniform traffic: one frame
	evBlockArrival              // block traffic: one codec block
)

// dispatch routes events; it is the engine's installed dispatcher.
func (s *simulation) dispatch(kind uint8, node int32, arg float64) {
	var n *simNode
	if node >= 0 {
		n = s.nodes[node]
	}
	switch kind {
	case evBeaconEnd:
		n.extraCycles += beaconProcCycles
		n.queueSamples = append(n.queueSamples, n.queueLen())
		s.setRadio(n, StateSleep)
	case evTxWindow:
		s.txWindow(n, arg)
	case evAckDone:
		s.ackDone(n, arg)
	case evBeaconTick:
		s.beacons++
	case evSuperframe:
		s.scheduleSuperframe(int(arg))
	case evArrival:
		n.enqueue(packet{payloadBytes: n.payload, created: s.eng.Now()})
		s.eng.ScheduleAfter(n.interval, evArrival, node, 0)
	case evBlockArrival:
		now := s.eng.Now()
		n.carryBytes += n.blockBytes
		for n.carryBytes >= float64(n.payload) {
			n.enqueue(packet{payloadBytes: n.payload, created: now})
			n.carryBytes -= float64(n.payload)
		}
		if whole := int(n.carryBytes); whole > 0 {
			// Ship the block's tail as a short frame rather than letting
			// stale bytes wait for the next block — a real codec flushes
			// block boundaries.
			n.enqueue(packet{payloadBytes: whole, created: now})
			n.carryBytes -= float64(whole)
		}
		s.eng.ScheduleAfter(n.period, evBlockArrival, node, 0)
	default:
		panic(fmt.Sprintf("sim: unknown event kind %d", kind))
	}
}

// Run executes one simulation and returns the per-node results.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &simulation{
		cfg: cfg,
		eng: NewEngine(),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	s.eng.SetDispatcher(s.dispatch)
	s.bi = float64(cfg.Superframe.BeaconInterval())
	s.slot = float64(cfg.Superframe.SlotDuration())
	// drift is a variable, not part of a constant expression: the
	// guard time must round as the float64 product 40 × 1e-6 does, one
	// ulp below the exact constant 4e-5.
	drift := float64(clockDriftPPM)
	s.guard = drift*1e-6*s.bi + 32e-6
	s.beaconAir = float64(ieee.BeaconAirTime(gtsDescriptors(cfg)))

	// The radio timelines share one backing array. A timeline holds at
	// most a window's Tx and Rx ahead of the next superframe's wake-up,
	// beacon listen and GTS ramp (BO = SO), so radioCap entries suffice.
	radioqs := make([]transition, radioCap*len(cfg.Nodes))
	// Build nodes and lay out the contention-free period: GTSs are
	// allocated from the end of the active portion backwards, in node
	// order, as the standard prescribes.
	nextEnd := ieee.ANumSuperframeSlots
	for i, nc := range cfg.Nodes {
		n := &simNode{
			cfg:     nc,
			idx:     i,
			radio:   newRadioAccount(nc.Platform.Radio),
			phiOut:  float64(nc.App.OutputRate(nc.Platform.InputRate(nc.SampleFreq))),
			payload: nc.payload(cfg.PayloadBytes),
			arrival: nc.arrival(cfg.Arrival),
			linkIdx: -1,
			radioq:  radioqs[i*radioCap : i*radioCap : (i+1)*radioCap],
		}
		n.endSlot = nextEnd
		n.startSlot = nextEnd - nc.Slots
		nextEnd = n.startSlot
		if n.startSlot < ieee.CAPSlots {
			// Validate caps total slots at 7, so the CFP can
			// never eat into the 9 CAP slots; keep the invariant
			// explicit.
			return nil, fmt.Errorf("sim: GTS layout underflow at node %d", i)
		}
		s.nodes = append(s.nodes, n)
	}
	// Traffic generators.
	for _, n := range s.nodes {
		s.startArrivals(n)
	}
	// Superframe chain.
	s.scheduleSuperframe(0)

	dur := float64(cfg.Duration)
	s.eng.Run(dur)

	return s.collect(dur), nil
}

// gtsDescriptors counts the beacon's GTS descriptor list: one per node
// holding at least one slot.
func gtsDescriptors(cfg Config) int {
	t := 0
	for _, n := range cfg.Nodes {
		if n.Slots > 0 {
			t++
		}
	}
	return t
}

// startArrivals schedules the node's traffic process under its effective
// (per-node override or network default) arrival model and payload.
func (s *simulation) startArrivals(n *simNode) {
	switch n.arrival {
	case ArrivalUniform:
		if n.phiOut <= 0 {
			return
		}
		n.interval = float64(n.payload) / n.phiOut
		s.eng.ScheduleAfter(n.interval, evArrival, int32(n.idx), 0)
	case ArrivalBlock:
		fs := float64(n.cfg.SampleFreq)
		n.period = float64(s.cfg.BlockSamples) / fs
		n.blockBytes = n.phiOut * n.period
		s.eng.ScheduleAfter(n.period, evBlockArrival, int32(n.idx), 0)
	}
}

func (n *simNode) enqueue(p packet) {
	n.queue = append(n.queue, p)
	if n.queueLen() > n.queuePeak {
		n.queuePeak = n.queueLen()
	}
}

// radioAt queues a radio transition of node n at absolute time t on the
// node's timeline. Like Engine.Schedule it panics on a time in the past and
// stamps the transition with the engine's next schedule number. Insertion
// scans from the back, keeping the timeline sorted by (time, seq): a
// transition usually lands last, but with BO = SO txWindow's Tx and Rx
// precede the next superframe's wake-up, which is queued already.
func (s *simulation) radioAt(n *simNode, t float64, state RadioState) {
	if now := s.eng.Now(); t < now {
		panic(fmt.Sprintf("sim: radio transition at %.9f before now %.9f", t, now))
	}
	tr := transition{time: t, seq: s.eng.stamp(), state: state}
	q := append(n.radioq, tr)
	i := len(q) - 1
	for ; i > 0 && q[i-1].time > t; i-- {
		q[i] = q[i-1]
	}
	q[i] = tr
	n.radioq = q
}

// applyRadio applies the node's queued transitions ordered before
// (t, seq) and drops them from its timeline, in place.
func (s *simulation) applyRadio(n *simNode, t float64, seq int64) {
	q := n.radioq
	k := 0
	for ; k < len(q) && (q[k].time < t || (q[k].time == t && q[k].seq < seq)); k++ {
		n.radio.setState(q[k].time, q[k].state)
	}
	if k > 0 {
		n.radioq = q[:copy(q, q[k:])]
		s.transitions += int64(k)
	}
}

// setRadio switches the node's radio at the current event, after the
// queued transitions the engine would have dispatched before it.
func (s *simulation) setRadio(n *simNode, state RadioState) {
	now, seq := s.eng.current()
	s.applyRadio(n, now, seq)
	n.radio.setState(now, state)
}

// scheduleSuperframe arms everything for superframe index sf and chains
// the next one.
func (s *simulation) scheduleSuperframe(sf int) {
	tb := float64(sf) * s.bi // beacon time

	for _, n := range s.nodes {
		ramp := float64(n.cfg.Platform.Radio.RampUpTime)
		wake := tb - s.guard - ramp
		if wake < n.busyUntil {
			wake = n.busyUntil
		}
		rxAt := tb - s.guard
		if rxAt < wake {
			rxAt = wake
		}
		beaconEnd := tb + s.beaconAir
		ni := int32(n.idx)
		if wake >= s.eng.Now() {
			s.radioAt(n, wake, StateRamp)
			s.radioAt(n, rxAt, StateRx)
		} else {
			// First superframe: the radio starts cold at t=0.
			s.radioAt(n, tb, StateRx)
		}
		s.eng.Schedule(beaconEnd, evBeaconEnd, ni, 0)
		n.busyUntil = beaconEnd

		if n.cfg.Slots > 0 {
			wStart := tb + float64(n.startSlot)*s.slot
			wEnd := tb + float64(n.endSlot)*s.slot
			gtsWake := wStart - ramp
			if gtsWake < n.busyUntil {
				gtsWake = n.busyUntil
			}
			s.radioAt(n, gtsWake, StateRamp)
			s.eng.Schedule(wStart, evTxWindow, ni, wEnd)
			n.busyUntil = wEnd
		}
	}

	s.eng.Schedule(tb, evBeaconTick, -1, 0)
	s.eng.Schedule(float64(sf+1)*s.bi-s.bi/2, evSuperframe, -1, float64(sf+1))
}

// txWindow drains the node's queue inside its GTS [now, wEnd). The service
// sequence — turnaround, transmit, listen for the acknowledgement, IFS —
// goes on the radio timeline and the engine's heap; the in-flight frame
// stays at the head of the queue until its ack verdict, so evAckDone needs
// no captured state.
func (s *simulation) txWindow(n *simNode, wEnd float64) {
	now := s.eng.Now()
	if n.queueLen() == 0 {
		s.setRadio(n, StateSleep)
		return
	}
	p := n.queueHead()
	frame := float64(ieee.DataFrameAirTime(p.payloadBytes))
	turn := float64(ieee.Turnaround())
	ack := float64(ieee.AckAirTime())
	service := turn + frame + ack + float64(ieee.IFS(p.payloadBytes+ieee.MACOverheadBytes))
	if now+service > wEnd {
		// Does not fit in the remaining window; resume next
		// superframe.
		s.setRadio(n, StateSleep)
		return
	}
	s.setRadio(n, StateIdle)
	s.radioAt(n, now+turn, StateTx)
	s.radioAt(n, now+turn+frame, StateRx)
	s.eng.Schedule(now+turn+frame+ack, evAckDone, int32(n.idx), wEnd)
}

// ackDone settles the head frame's fate once its acknowledgement window
// closes, then chains the next service attempt after the interframe space.
func (s *simulation) ackDone(n *simNode, wEnd float64) {
	p := n.queueHead()
	payload := p.payloadBytes
	n.extraCycles += packetProcCycles
	delivered := s.rng.Float64() >= s.perAt(n)
	if delivered {
		n.delays = append(n.delays, s.eng.Now()-p.created)
		n.packetsSent++
		n.bytesDelivered += payload
		n.popQueue()
	} else {
		p.attempts++
		if p.attempts > maxRetries {
			n.dropped++
			n.popQueue()
		} else {
			n.retries++
		}
	}
	s.setRadio(n, StateIdle)
	ifs := float64(ieee.IFS(payload + ieee.MACOverheadBytes))
	s.eng.ScheduleAfter(ifs, evTxWindow, int32(n.idx), wEnd)
}

// perAt resolves the node's effective packet error rate at the current
// simulation time: the base channel PER until the first link phase starts,
// then the active phase's PER. The rng draw in ackDone happens for every
// attempt regardless of the schedule, so an all-equal schedule is
// bit-identical to no schedule at all.
func (s *simulation) perAt(n *simNode) float64 {
	link := n.cfg.Link
	if len(link) == 0 {
		return s.cfg.PacketErrorRate
	}
	now := s.eng.Now()
	for n.linkIdx+1 < len(link) && float64(link[n.linkIdx+1].Start) <= now {
		n.linkIdx++
	}
	if n.linkIdx < 0 {
		return s.cfg.PacketErrorRate
	}
	return link[n.linkIdx].PER
}

// collect assembles the result at simulation end.
func (s *simulation) collect(dur float64) *Result {
	res := &Result{
		Duration:    units.Seconds(dur),
		Nodes:       make([]NodeResult, len(s.nodes)),
		BeaconsSent: s.beacons,
		Stable:      true,
	}
	for i, n := range s.nodes {
		// Run dispatched every event at or before dur; apply the
		// transitions it would have dispatched too.
		s.applyRadio(n, dur, math.MaxInt64)
		n.radio.finish(dur)

		// Microcontroller: application cycles (device-level, with CR
		// sensitivity when available) plus firmware overheads.
		appCycles := s.appCyclesPerSecond(n) * dur
		totalCycles := appCycles + n.extraCycles
		f := float64(n.cfg.MicroFreq)
		activeTime := totalCycles / f
		microE := activeTime * float64(n.cfg.Platform.Micro.ActivePower(n.cfg.MicroFreq))

		// Sensor and memory run the same closed forms as the model:
		// on real hardware these parts have no packet-level dynamics.
		usage := n.cfg.App.Usage(n.cfg.Platform.InputRate(n.cfg.SampleFreq), n.cfg.MicroFreq)
		sensorE := float64(n.cfg.Platform.Sensor.Power(n.cfg.SampleFreq)) * dur
		memE := float64(n.cfg.Platform.Memory.Power(usage.AccessesPerSecond, usage.MemoryBytes)) * dur

		acc := EnergyAccount{
			Sensor: units.Joules(sensorE),
			Micro:  units.Joules(microE),
			Memory: units.Joules(memE),
			Radio:  units.Joules(n.radio.energy),
		}
		acc.Total = acc.Sensor + acc.Micro + acc.Memory + acc.Radio

		stateTime := make(map[RadioState]units.Seconds, numRadioStates)
		for st, t := range n.radio.stateTime {
			if t != 0 {
				stateTime[RadioState(st)] = units.Seconds(t)
			}
		}
		nr := NodeResult{
			Name:           n.cfg.Name,
			Energy:         acc,
			Power:          acc.Power(units.Seconds(dur)),
			PacketsSent:    n.packetsSent,
			Retries:        n.retries,
			PacketsDropped: n.dropped,
			BytesDelivered: n.bytesDelivered,
			QueuePeak:      n.queuePeak,
			RadioStateTime: stateTime,
			Ramps:          n.radio.ramps,
		}
		if len(n.delays) > 0 {
			nr.Delay = DelayStats{
				Count: len(n.delays),
				Mean:  units.Seconds(numeric.Mean(n.delays)),
				Max:   units.Seconds(maxOf(n.delays)),
				P95:   units.Seconds(numeric.Percentile(n.delays, 95)),
			}
		}
		if !queueStable(n.queueSamples) {
			res.Stable = false
		}
		res.Nodes[i] = nr
	}
	res.Events = s.eng.Dispatched() + s.transitions
	return res
}

// appCyclesPerSecond prefers the device-level characterization.
func (s *simulation) appCyclesPerSecond(n *simNode) float64 {
	if rc, ok := n.cfg.App.(realCycler); ok {
		return rc.RealCyclesPerSecond()
	}
	usage := n.cfg.App.Usage(n.cfg.Platform.InputRate(n.cfg.SampleFreq), n.cfg.MicroFreq)
	return usage.Duty * float64(n.cfg.MicroFreq)
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// queueStable compares queue occupancy between the first and last quarter
// of the run: sustained growth means the allocation cannot carry the load.
func queueStable(samples []int) bool {
	if len(samples) < 8 {
		return true // too short to judge
	}
	q := len(samples) / 4
	head := samples[:q]
	tail := samples[len(samples)-q:]
	var hm, tm float64
	for _, v := range head {
		hm += float64(v)
	}
	for _, v := range tail {
		tm += float64(v)
	}
	hm /= float64(len(head))
	tm /= float64(len(tail))
	return tm <= hm+1.5
}

// SlotsFor computes the GTS slots a node needs for a phiOut B/s stream —
// the simulator-side mirror of the model's assignment. Both sides call
// ieee.GTSSlotsFor so the simulated network always matches the modeled
// one.
func SlotsFor(sf ieee.SuperframeConfig, payloadBytes int, phiOut float64) int {
	return ieee.GTSSlotsFor(sf, payloadBytes, phiOut)
}
