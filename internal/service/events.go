package service

import (
	"context"
	"math"
	"slices"
	"sync"

	"wsndse/internal/service/island"
)

// Event is one entry in a job's event stream. Status events mark
// lifecycle transitions; progress events carry boundary snapshots; island
// events carry the island coordinator's observations (rounds, migrations,
// crashes, failovers) for island jobs. Seq is monotonically increasing
// per job — it doubles as the SSE event id, so a reconnecting consumer
// resumes exactly where its stream died (Last-Event-ID → Manager.Events)
// instead of replaying or skipping. A reader that keeps up sees every
// event; one that falls behind skips only progress and island events a
// later one of their kind superseded (see hub), never a status event.
type Event struct {
	Seq      int           `json:"seq"`
	Type     string        `json:"type"` // "status" | "progress" | "island"
	Status   Status        `json:"status,omitempty"`
	Error    string        `json:"error,omitempty"`
	Attempt  int           `json:"attempt,omitempty"` // which run attempt emitted this (1-based; 0 before the first)
	Progress *ProgressInfo `json:"progress,omitempty"`
	Island   *island.Event `json:"island,omitempty"`
}

// supersedes reports whether e replaces old in a job's history: a
// progress event replaces the previous progress event, and an island
// event the previous island event of its kind. Status events stay.
func (e Event) supersedes(old Event) bool {
	switch e.Type {
	case "progress":
		return old.Type == "progress"
	case "island":
		return old.Type == "island" && old.Island.Kind == e.Island.Kind
	}
	return false
}

// hub is a job's event history, in Seq order, which every reader follows
// by sequence number: every status event, the latest progress event and
// the latest island event of each kind. A reader attaching mid-run (or
// after completion) thus learns the job's story at once, and the service
// buffers no stream of generation snapshots. A reader with nothing left
// to read waits on wake, which the hub makes only when a reader waits and
// which publish and close close. Once closed the history is final, folded
// to its exact length. The zero hub is open and empty.
type hub struct {
	mu     sync.Mutex
	events []Event
	wake   chan struct{}
	closed bool
}

// publish gives e the next sequence number, appends it to the history in
// place of the event it supersedes, and wakes the waiting readers. It
// never blocks the publishing (search) goroutine on a reader.
func (h *hub) publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	e.Seq = h.lastLocked() + 1
	if i := slices.IndexFunc(h.events, e.supersedes); i >= 0 {
		h.events = slices.Delete(h.events, i, i+1)
	}
	h.events = append(h.events, e)
	h.wakeLocked()
}

// close ends the stream: the history is final, and every reader returns
// once it has read it. A job's hub closes once, at its terminal status.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.events = slices.Clone(h.events)
	h.wakeLocked()
}

// lastLocked is the latest event's sequence number, 0 before the first.
func (h *hub) lastLocked() int {
	if len(h.events) == 0 {
		return 0
	}
	return h.events[len(h.events)-1].Seq
}

// wakeLocked wakes every reader waiting on h.
func (h *hub) wakeLocked() {
	if h.wake != nil {
		close(h.wake)
		h.wake = nil
	}
}

// next returns the first event after sequence number seq. When there is
// none it returns ok false and a channel closed at the next publish or
// close, or a nil channel once the hub is closed.
func (h *hub) next(seq int) (e Event, ok bool, wake <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, e := range h.events {
		if e.Seq > seq {
			return e, true, nil
		}
	}
	if h.wake == nil && !h.closed {
		h.wake = make(chan struct{})
	}
	return Event{}, false, h.wake
}

// follow calls fn with each event after sequence number afterSeq, in Seq
// order, until fn returns false or the hub closes (nil), or ctx expires
// while it waits (ctx.Err()). An afterSeq past the latest event counts as
// the latest, so a Last-Event-ID the hub never assigned still receives what
// comes next.
func (h *hub) follow(ctx context.Context, afterSeq int, fn func(Event) bool) error {
	h.mu.Lock()
	seq := min(afterSeq, h.lastLocked())
	h.mu.Unlock()
	for {
		e, ok, wake := h.next(seq)
		switch {
		case ok:
			if !fn(e) {
				return nil
			}
			seq = e.Seq
		case wake == nil:
			return nil
		default:
			select {
			case <-wake:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}

// wait blocks until the hub closes or ctx expires.
func (h *hub) wait(ctx context.Context) error {
	return h.follow(ctx, math.MaxInt, func(Event) bool { return true })
}
