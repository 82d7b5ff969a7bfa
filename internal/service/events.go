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
// to read waits on cond, made when a reader first waits, which publish
// and close broadcast. Once closed the history is final, folded to its
// exact length, and cond is dropped. The zero hub is open and empty.
type hub struct {
	mu     sync.Mutex
	events []Event
	cond   *sync.Cond // on mu
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
	h.cond = nil
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
	if h.cond != nil {
		h.cond.Broadcast()
	}
}

// wake wakes every reader waiting on h, so that one whose ctx ended
// returns.
func (h *hub) wake() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.wakeLocked()
}

// nextLocked returns the first event after sequence number seq.
func (h *hub) nextLocked(seq int) (Event, bool) {
	for _, e := range h.events {
		if e.Seq > seq {
			return e, true
		}
	}
	return Event{}, false
}

// follow calls fn with each event after sequence number afterSeq, in Seq
// order, until fn returns false or the hub closes (nil), or ctx expires
// while it waits (ctx.Err()). An afterSeq past the latest event counts as
// the latest, so a Last-Event-ID the hub never assigned still receives what
// comes next. A follow that waits registers one wake-up on ctx, and
// waiting allocates nothing.
func (h *hub) follow(ctx context.Context, afterSeq int, fn func(Event) bool) error {
	var stop func() bool
	defer func() {
		if stop != nil {
			stop()
		}
	}()
	h.mu.Lock()
	seq := min(afterSeq, h.lastLocked())
	for {
		if e, ok := h.nextLocked(seq); ok {
			h.mu.Unlock()
			if !fn(e) {
				return nil
			}
			seq = e.Seq
			h.mu.Lock()
			continue
		}
		if h.closed {
			h.mu.Unlock()
			return nil
		}
		if err := ctx.Err(); err != nil {
			h.mu.Unlock()
			return err
		}
		if stop == nil {
			stop = context.AfterFunc(ctx, h.wake)
		}
		if h.cond == nil {
			h.cond = sync.NewCond(&h.mu)
		}
		h.cond.Wait()
	}
}

// wait blocks until the hub closes or ctx expires.
func (h *hub) wait(ctx context.Context) error {
	return h.follow(ctx, math.MaxInt, func(Event) bool { return true })
}
