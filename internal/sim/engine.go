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
// identical results, event ties resolving in schedule order.
package sim

import "fmt"

// event is one slab slot. Scheduled events live in the slab and are
// addressed by index from the heap; idle slots chain through next on the
// free list. An event is its (kind, node, arg) payload and costs no
// allocation.
type event struct {
	time float64 // absolute simulation time, seconds
	seq  int64   // tiebreaker: FIFO among simultaneous events
	arg  float64
	next int32 // free-list link while the slot is idle
	node int32
	kind uint8
}

// Engine is the discrete-event scheduler. Events are value slots in a slab
// recycled through a free list and ordered by a manual min-heap of slab
// indices, so steady-state scheduling and dispatch perform zero heap
// allocations: no per-event box, no container/heap interface boxing and no
// closure.
type Engine struct {
	now        float64
	seq        int64
	dispatched int64
	slab       []event
	heap       []int32
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

// Schedule arms an event at absolute time t: at dispatch the engine calls
// the installed dispatcher with (kind, node, arg). Scheduling in the past
// is a programming error and panics. The event claims a slab slot (free
// list first, growth only when every slot is live) and sifts its index
// into the heap.
func (e *Engine) Schedule(t float64, kind uint8, node int32, arg float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %.9f before now %.9f", t, e.now))
	}
	e.seq++
	var slot int32
	if e.free >= 0 {
		slot = e.free
		e.free = e.slab[slot].next
	} else {
		e.slab = append(e.slab, event{})
		slot = int32(len(e.slab) - 1)
	}
	ev := &e.slab[slot]
	ev.time, ev.seq, ev.kind, ev.node, ev.arg = t, e.seq, kind, node, arg
	e.heap = append(e.heap, slot)
	e.siftUp(len(e.heap) - 1)
}

// ScheduleAfter schedules an event delay seconds from now.
func (e *Engine) ScheduleAfter(delay float64, kind uint8, node int32, arg float64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %.9f", delay))
	}
	e.Schedule(e.now+delay, kind, node, arg)
}

// less orders slab slots by (time, seq).
func (e *Engine) less(a, b int32) bool {
	x, y := &e.slab[a], &e.slab[b]
	if x.time != y.time {
		return x.time < y.time
	}
	return x.seq < y.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && e.less(h[r], h[l]) {
			small = r
		}
		if !e.less(h[small], h[i]) {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Run processes events in order until the queue empties or the next event
// lies beyond `until`; the clock finishes at `until` exactly.
func (e *Engine) Run(until float64) {
	for len(e.heap) > 0 {
		slot := e.heap[0]
		ev := &e.slab[slot]
		if ev.time > until {
			break
		}
		n := len(e.heap) - 1
		e.heap[0] = e.heap[n]
		e.heap = e.heap[:n]
		if n > 0 {
			e.siftDown(0)
		}
		// Copy the payload out and recycle the slot before dispatching,
		// so the handler can schedule into it.
		t, kind, node, arg := ev.time, ev.kind, ev.node, ev.arg
		ev.next = e.free
		e.free = slot
		e.now = t
		e.dispatched++
		e.dispatch(kind, node, arg)
	}
	if e.now < until {
		e.now = until
	}
}

// Dispatched returns how many events have been processed — the numerator
// of the events-per-second throughput the CLIs report.
func (e *Engine) Dispatched() int64 { return e.dispatched }
