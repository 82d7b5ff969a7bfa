package sim

import (
	"math"
	"testing"
)

// recorder is an engine whose dispatcher appends every event it runs.
type recorder struct {
	*Engine
	got []rec
}

type rec struct {
	kind uint8
	node int32
	arg  float64
}

func newRecorder() *recorder {
	r := &recorder{Engine: NewEngine()}
	r.SetDispatcher(func(kind uint8, node int32, arg float64) {
		r.got = append(r.got, rec{kind, node, arg})
	})
	return r
}

func TestEngineOrdering(t *testing.T) {
	e := newRecorder()
	e.Schedule(0.3, 3, 0, 0)
	e.Schedule(0.1, 1, 0, 0)
	e.Schedule(0.2, 2, 0, 0)
	e.Run(1)
	if len(e.got) != 3 || e.got[0].kind != 1 || e.got[1].kind != 2 || e.got[2].kind != 3 {
		t.Errorf("order = %v", e.got)
	}
	if e.Now() != 1 {
		t.Errorf("final time = %g, want 1", e.Now())
	}
}

func TestEngineFIFOAmongTies(t *testing.T) {
	e := newRecorder()
	for i := 0; i < 10; i++ {
		e.Schedule(0.5, 1, int32(i), 0)
	}
	e.Run(1)
	if len(e.got) != 10 {
		t.Fatalf("ran %d of 10 tied events", len(e.got))
	}
	for i, r := range e.got {
		if r.node != int32(i) {
			t.Fatalf("tie order = %v", e.got)
		}
	}
}

func TestEngineStopsAtHorizon(t *testing.T) {
	e := newRecorder()
	e.Schedule(2.0, 1, 0, 0)
	e.Run(1)
	if len(e.got) != 0 {
		t.Error("event beyond the horizon ran")
	}
	if len(e.heap) != 1 {
		t.Errorf("pending = %d, want 1", len(e.heap))
	}
	// Continuing past the horizon runs it.
	e.Run(3)
	if len(e.got) != 1 {
		t.Error("event not run on extended horizon")
	}
}

func TestEngineChainedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	e.SetDispatcher(func(kind uint8, node int32, arg float64) {
		count++
		e.ScheduleAfter(0.1, kind, node, arg)
	})
	e.ScheduleAfter(0.1, 1, 0, 0)
	e.Run(1.05)
	if count != 10 {
		t.Errorf("ticks = %d, want 10", count)
	}
}

// TestEngineTypedEvents checks that the dispatcher receives each event's
// payload intact, in time order, with ties between different kinds and
// nodes resolved in schedule order — including events a handler schedules
// for its own instant.
func TestEngineTypedEvents(t *testing.T) {
	e := newRecorder()
	e.SetDispatcher(func(kind uint8, node int32, arg float64) {
		e.got = append(e.got, rec{kind, node, arg})
		if kind == 1 {
			e.Schedule(e.Now(), 9, node, arg) // same instant: runs after earlier ties
		}
	})
	e.Schedule(0.2, 2, 7, 1.5)
	e.Schedule(0.1, 1, -1, 0)
	e.Schedule(0.2, 1, 3, 0.25)
	e.Schedule(0.1, 4, 2, -1)
	e.Run(1)
	want := []rec{{1, -1, 0}, {4, 2, -1}, {9, -1, 0}, {2, 7, 1.5}, {1, 3, 0.25}, {9, 3, 0.25}}
	if len(e.got) != len(want) {
		t.Fatalf("dispatched %v, want %v", e.got, want)
	}
	for i := range want {
		if e.got[i] != want[i] {
			t.Fatalf("dispatched %v, want %v", e.got, want)
		}
	}
	if e.Dispatched() != int64(len(want)) {
		t.Errorf("Dispatched = %d, want %d", e.Dispatched(), len(want))
	}
}

// TestEngineSlotReuse checks the free list: a self-rescheduling chain of
// events must run in a single recycled slab slot.
func TestEngineSlotReuse(t *testing.T) {
	e := NewEngine()
	count := 0
	e.SetDispatcher(func(kind uint8, node int32, arg float64) {
		count++
		if count < 1000 {
			e.ScheduleAfter(0.001, 1, 0, 0)
		}
	})
	e.ScheduleAfter(0.001, 1, 0, 0)
	e.Run(10)
	if count != 1000 {
		t.Fatalf("ran %d events, want 1000", count)
	}
	if len(e.slab) != 1 {
		t.Errorf("slab grew to %d slots for a 1-deep chain", len(e.slab))
	}
}

// TestEngineTypedZeroAllocs pins the zero-alloc event core: once the slab
// and heap are warm, scheduling and dispatching typed events allocates
// nothing.
func TestEngineTypedZeroAllocs(t *testing.T) {
	e := NewEngine()
	e.SetDispatcher(func(kind uint8, node int32, arg float64) {})
	for i := 0; i < 64; i++ { // warm slab and heap capacity
		e.ScheduleAfter(0.001, 1, int32(i), 0)
	}
	e.Run(1)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			e.ScheduleAfter(0.001, 1, int32(i), float64(i))
		}
		e.Run(e.Now() + 1)
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+dispatch allocates %.1f objects per 64-event batch, want 0", allocs)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := newRecorder()
	e.Schedule(1, 1, 0, 0)
	e.Run(2)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	e.Schedule(1.5, 1, 0, 0)
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := newRecorder()
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	e.ScheduleAfter(-0.1, 1, 0, 0)
}

// TestRadioTimeline checks a node's radio timeline against the engine's
// (time, seq) order: a transition queued late but due early is applied
// first, ties at one instant apply in stamp order, setRadio applies only
// what precedes the event being dispatched, and a transition in the past
// panics.
func TestRadioTimeline(t *testing.T) {
	s := &simulation{eng: NewEngine()}
	n := &simNode{radio: newRadioAccount(testPlatform().Radio)}
	s.eng.SetDispatcher(func(kind uint8, node int32, arg float64) {
		switch kind {
		case 1: // t = 1: queue out of order, with a tie at t = 3
			s.radioAt(n, 3, StateRamp)
			s.radioAt(n, 3, StateRx)
			s.radioAt(n, 2, StateTx)
			s.eng.Schedule(3, 2, 0, 0) // stamped after the t = 3 transitions
			s.radioAt(n, 3, StateIdle) // stamped after the event
		case 2: // t = 3: the two tied transitions precede this event
			s.setRadio(n, StateSleep)
		}
	})
	s.eng.Schedule(1, 1, 0, 0)
	s.eng.Run(10)
	if len(n.radioq) != 1 || s.transitions != 3 {
		t.Fatalf("timeline holds %d, applied %d; want 1 and 3", len(n.radioq), s.transitions)
	}
	s.applyRadio(n, 10, math.MaxInt64)
	n.radio.finish(10)
	// sleep [0,2), tx [2,3), ramp, rx and sleep for no time at 3, idle [3,10).
	if r := n.radio; r.stateTime[StateSleep] != 2 || r.stateTime[StateTx] != 1 || r.stateTime[StateIdle] != 7 ||
		r.ramps != 1 || s.transitions != 4 {
		t.Errorf("state times %v, %d ramps, %d transitions", r.stateTime, r.ramps, s.transitions)
	}
	defer func() {
		if recover() == nil {
			t.Error("a radio transition in the past should panic")
		}
	}()
	s.radioAt(n, 9, StateRx)
}

func TestRadioAccountIntegration(t *testing.T) {
	chip := testPlatform().Radio
	r := newRadioAccount(chip)
	r.setState(1, StateRx)    // 1 s of sleep
	r.setState(3, StateTx)    // 2 s of rx
	r.setState(4, StateSleep) // 1 s of tx
	r.finish(10)              // 6 s of sleep

	want := 1*float64(chip.SleepPower) + 2*float64(chip.RxPower) + 1*float64(chip.TxPower) +
		6*float64(chip.SleepPower)
	if diff := r.energy - want; diff > 1e-15 || diff < -1e-15 {
		t.Errorf("energy = %g, want %g", r.energy, want)
	}
	if r.stateTime[StateRx] != 2 || r.stateTime[StateTx] != 1 || r.stateTime[StateSleep] != 7 {
		t.Errorf("state times: %v", r.stateTime)
	}
	if r.ramps != 0 {
		t.Errorf("ramps = %d", r.ramps)
	}
}

func TestRadioAccountRampCharges(t *testing.T) {
	chip := testPlatform().Radio
	r := newRadioAccount(chip)
	r.setState(1, StateRamp)
	r.setState(2, StateRx)
	r.finish(3)
	if r.ramps != 1 {
		t.Errorf("ramps = %d, want 1", r.ramps)
	}
	want := 1*float64(chip.SleepPower) + float64(chip.RampUpEnergy) +
		1*float64(chip.IdlePower) + 1*float64(chip.RxPower)
	if diff := r.energy - want; diff > 1e-15 || diff < -1e-15 {
		t.Errorf("energy = %g, want %g", r.energy, want)
	}
}

func TestRadioAccountBackwardsTimePanics(t *testing.T) {
	r := newRadioAccount(testPlatform().Radio)
	r.setState(5, StateRx)
	defer func() {
		if recover() == nil {
			t.Error("backwards time should panic")
		}
	}()
	r.setState(4, StateTx)
}

func TestRadioStateString(t *testing.T) {
	names := map[RadioState]string{
		StateSleep: "sleep", StateIdle: "idle", StateRamp: "ramp",
		StateRx: "rx", StateTx: "tx",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
	if RadioState(99).String() == "" {
		t.Error("unknown state string empty")
	}
}
