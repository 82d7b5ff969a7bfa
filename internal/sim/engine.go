// Package sim is a packet-level discrete-event simulator for beacon-enabled
// IEEE 802.15.4 star networks with device-level energy accounting.
//
// It plays two roles in the reproduction, standing in for artifacts the
// paper had and we do not:
//
//   - the "real measurement" reference of Figures 3–4: the simulator
//     integrates fine-grained per-event costs (radio ramp-ups, guard
//     times, turnarounds, per-beacon and per-packet processing, the
//     CR-dependent firmware load) that the closed-form model neglects,
//     so model-vs-simulation discrepancies have the same origin and
//     magnitude as the paper's model-vs-hardware errors;
//   - the Castalia-equivalent network simulator of §5.1–5.2: per-packet
//     delays for validating the Eq. 9 bound, and a wall-clock cost per
//     evaluated configuration to compare against the analytical model.
//
// The engine is deterministic: identical configurations and seeds produce
// identical results, event ties resolving in schedule order. Every event
// and every radio transition carries a (time, seq) key, seq being its
// schedule number. The engine's heap holds the events. Each node keeps its
// radio transitions in a small timeline of its own and applies them lazily,
// in the same (time, seq) order, whenever the node next touches its radio
// and once more at the end of the run. A radio account is read and written
// by its own node only, so the lazy timeline yields exactly the state
// trajectory that dispatching each transition through the heap would.
package sim

import "fmt"

// event is one slab slot: the payload of a scheduled event. Idle slots
// chain through next on the free list. An event is its (kind, node, arg)
// payload and costs no allocation.
type event struct {
	arg  float64
	next int32 // free-list link while the slot is idle
	node int32
	kind uint8
}

// entry is one heap element: an event's (time, seq) key and its slab slot.
// The key lives in the heap itself, so the sifts compare contiguous
// entries and never touch the slab.
type entry struct {
	time float64 // absolute simulation time, seconds
	seq  int64   // schedule number: FIFO among simultaneous events
	slot int32
}

// less orders heap entries by (time, seq).
func (a entry) less(b entry) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// Engine is the discrete-event scheduler. Event payloads are value slots in
// a slab recycled through a free list; a binary min-heap of keyed entries
// orders them. Steady-state scheduling and dispatch therefore perform zero
// heap allocations: no per-event box, no container/heap interface boxing
// and no closure. The simulation stamps its radio transitions from the
// same schedule counter and keeps them off the heap, on per-node timelines.
type Engine struct {
	now        float64
	seq        int64 // last schedule number handed out
	cur        int64 // schedule number of the event being dispatched
	dispatched int64
	slab       []event
	heap       []entry
	free       int32 // head of the idle-slot list, -1 when empty
	dispatch   func(kind uint8, node int32, arg float64)
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{free: -1} }

// SetDispatcher installs the event handler. Run panics without one once an
// event is due.
func (e *Engine) SetDispatcher(fn func(kind uint8, node int32, arg float64)) { e.dispatch = fn }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// stamp hands out the next schedule number. Schedule stamps every event it
// queues; a caller that keeps its own timeline of deferred work stamps each
// item the same way, so items and events share one (time, seq) order.
func (e *Engine) stamp() int64 {
	e.seq++
	return e.seq
}

// current returns the (time, seq) key of the event being dispatched.
func (e *Engine) current() (float64, int64) { return e.now, e.cur }

// Schedule arms an event at absolute time t: at dispatch the engine calls
// the installed dispatcher with (kind, node, arg). Scheduling in the past
// is a programming error and panics. The event claims a slab slot (free
// list first, growth only when every slot is live) and sifts its keyed
// entry into the heap.
func (e *Engine) Schedule(t float64, kind uint8, node int32, arg float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %.9f before now %.9f", t, e.now))
	}
	var slot int32
	if e.free >= 0 {
		slot = e.free
		e.free = e.slab[slot].next
	} else {
		e.slab = append(e.slab, event{})
		slot = int32(len(e.slab) - 1)
	}
	ev := &e.slab[slot]
	ev.kind, ev.node, ev.arg = kind, node, arg
	e.heap = append(e.heap, entry{})
	e.siftUp(len(e.heap)-1, entry{time: t, seq: e.stamp(), slot: slot})
}

// ScheduleAfter schedules an event delay seconds from now.
func (e *Engine) ScheduleAfter(delay float64, kind uint8, node int32, arg float64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %.9f", delay))
	}
	e.Schedule(e.now+delay, kind, node, arg)
}

// siftUp places x, bound for the hole at i, moving larger parents down.
func (e *Engine) siftUp(i int, x entry) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !x.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

// siftDown places x, bound for the hole at i, moving smaller children up.
func (e *Engine) siftDown(i int, x entry) {
	h := e.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && h[r].less(h[l]) {
			small = r
		}
		if !h[small].less(x) {
			break
		}
		h[i] = h[small]
		i = small
	}
	h[i] = x
}

// Run processes events in order until the queue empties or the next event
// lies beyond `until`; the clock finishes at `until` exactly.
func (e *Engine) Run(until float64) {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if top.time > until {
			break
		}
		n := len(e.heap) - 1
		last := e.heap[n]
		e.heap = e.heap[:n]
		if n > 0 {
			e.siftDown(0, last)
		}
		// Copy the payload out and recycle the slot before dispatching,
		// so the handler can schedule into it.
		ev := &e.slab[top.slot]
		kind, node, arg := ev.kind, ev.node, ev.arg
		ev.next = e.free
		e.free = top.slot
		e.now, e.cur = top.time, top.seq
		e.dispatched++
		e.dispatch(kind, node, arg)
	}
	if e.now < until {
		e.now = until
	}
}

// Dispatched returns how many heap events have been processed. Work a
// caller keeps on its own timeline (the simulator's radio transitions) is
// not counted here.
func (e *Engine) Dispatched() int64 { return e.dispatched }
