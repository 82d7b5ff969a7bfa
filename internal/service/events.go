package service

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"wsndse/internal/service/island"
)

// Event is one entry in a job's event stream. Status events mark
// lifecycle transitions; progress events carry boundary snapshots; island
// events carry the island coordinator's observations (rounds, migrations,
// crashes, failovers) for island jobs. Seq is monotonically increasing
// per job — it doubles as the SSE event id, so a reconnecting consumer
// resumes exactly where its stream died (Last-Event-ID → SubscribeFrom)
// instead of replaying or skipping.
type Event struct {
	Seq      int           `json:"seq"`
	Type     string        `json:"type"` // "status" | "progress" | "island"
	Status   Status        `json:"status,omitempty"`
	Error    string        `json:"error,omitempty"`
	Attempt  int           `json:"attempt,omitempty"` // which run attempt emitted this (1-based; 0 before the first)
	Progress *ProgressInfo `json:"progress,omitempty"`
	Island   *island.Event `json:"island,omitempty"`
}

// subBuffer is each subscriber's channel depth. Slow consumers lose
// intermediate progress events (drop-oldest), never the ordering of what
// they do see; lifecycle events survive in the replay history regardless.
const subBuffer = 256

// hub is a per-job event broadcaster. It keeps a bounded replay history —
// every lifecycle transition plus the latest progress and island events —
// so a subscriber attaching mid-run (or after completion) immediately
// learns the job's story without the service buffering thousands of
// generation snapshots. Once the job's worker is done with it the
// history is final: compact folds it into status at its exact length, in
// Seq order, so a finished job's hub keeps only what replay serves.
type hub struct {
	mu           sync.Mutex
	seq          int
	status       []Event // lifecycle transitions, a handful at most; once compacted, the whole history
	lastProgress *Event
	lastIsland   *Event
	subs         map[chan Event]struct{}
	closed       bool
	// subGauge, when non-nil, tracks live subscriber count across every
	// hub sharing it — the wsndse_sse_subscribers metric.
	subGauge *atomic.Int64
}

func newHub(subGauge *atomic.Int64) *hub {
	return &hub{subs: make(map[chan Event]struct{}), subGauge: subGauge}
}

// publish assigns the next sequence number and fans the event out to every
// subscriber. Sends never block the publishing (search) goroutine: a full
// subscriber drops its oldest buffered event instead.
func (h *hub) publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	e.Seq = h.seq
	switch e.Type {
	case "progress":
		cp := e
		h.lastProgress = &cp
	case "island":
		cp := e
		h.lastIsland = &cp
	default:
		h.status = append(h.status, e)
	}
	for ch := range h.subs {
		select {
		case ch <- e:
		default:
			select { // drop-oldest; h.mu serializes all sends
			case <-ch:
			default:
			}
			select {
			case ch <- e:
			default:
			}
		}
	}
}

// close ends the stream: every subscriber's channel is closed after the
// events already buffered, and future subscribers get replay + an
// immediately closed channel.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	if h.subGauge != nil {
		h.subGauge.Add(-int64(len(h.subs)))
	}
	for ch := range h.subs {
		close(ch)
	}
	h.subs = nil
}

// compact folds the closed hub's history into status at its exact
// length, dropping the spare capacity publish grew it with.
func (h *hub) compact() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.status = slices.Clone(h.replayLocked())
	h.lastProgress, h.lastIsland = nil, nil
}

// closedEvents is the live channel every subscriber of a closed hub gets.
var closedEvents = func() chan Event {
	c := make(chan Event)
	close(c)
	return c
}()

// subscribeFrom returns the replay history after sequence number
// afterSeq (lifecycle events plus the latest progress/island snapshots,
// in Seq order; 0 keeps all of it, a reconnect's Last-Event-ID skips
// what it saw), a live channel, and a cancel func. After the hub closes
// the channel is closed; cancel is idempotent and safe after close.
func (h *hub) subscribeFrom(afterSeq int) (replay []Event, ch <-chan Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = h.replayLocked()
	if afterSeq > 0 {
		kept := replay[:0]
		for _, e := range replay {
			if e.Seq > afterSeq {
				kept = append(kept, e)
			}
		}
		replay = kept
	}
	if h.closed {
		return replay, closedEvents, func() {}
	}
	c := make(chan Event, subBuffer)
	h.subs[c] = struct{}{}
	if h.subGauge != nil {
		h.subGauge.Add(1)
	}
	cancel = func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[c]; ok {
			delete(h.subs, c)
			close(c)
			if h.subGauge != nil {
				h.subGauge.Add(-1)
			}
		}
	}
	return replay, c, cancel
}

// replayLocked merges status history with the latest progress and island
// events by Seq.
func (h *hub) replayLocked() []Event {
	out := make([]Event, 0, len(h.status)+2)
	out = append(out, h.status...)
	if h.lastProgress != nil {
		out = append(out, *h.lastProgress)
	}
	if h.lastIsland != nil {
		out = append(out, *h.lastIsland)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
