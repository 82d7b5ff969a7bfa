package island

import (
	"context"
	"errors"
	"fmt"

	"wsndse/internal/dse"
	"wsndse/internal/service/faultinject"
)

// Job is the immutable description of one island-model search: the
// scenario and the dse.Search every island runs, whose Seed the
// per-island seeds fork from. It crosses the process boundary verbatim
// when islands run as child worker processes, so it carries everything a
// worker needs to rebuild the compiled evaluation pipeline on its own.
type Job struct {
	JobID    string `json:"job_id"`
	Scenario string `json:"scenario"`
	dse.Search
}

// Request asks a Runner to advance one island by one round: run from
// Resume (nil: a fresh start) to the StopAfter boundary (0: to
// completion). Seed is the island's forked seed.
type Request struct {
	Job       Job           `json:"job"`
	Island    int           `json:"island"`
	Seed      int64         `json:"seed"`
	StopAfter int           `json:"stop_after,omitempty"`
	Resume    *dse.Snapshot `json:"resume,omitempty"`
}

// Result is the wire form of a finished island's dse.Result.
type Result struct {
	Front      []dse.Point `json:"front"`
	Evaluated  int         `json:"evaluated"`
	Infeasible int         `json:"infeasible"`
}

// Response is one round's outcome: a paused round carries the boundary
// Snapshot (Result nil), a completed run carries the final Result
// (Snapshot nil).
type Response struct {
	Snapshot *dse.Snapshot `json:"snapshot,omitempty"`
	Result   *Result       `json:"result,omitempty"`
}

// Heartbeat is called by a Runner at every search boundary the island
// passes, from the island's goroutine (or the worker process's relay
// goroutine). The coordinator's stall watchdog feeds on it.
type Heartbeat func(step int)

// Runner executes island rounds. GoRunner runs them on a goroutine in
// this process; ProcRunner delegates to a supervised child worker
// process. Implementations must be safe for concurrent RunRound calls.
type Runner interface {
	RunRound(ctx context.Context, req Request, beat Heartbeat) (*Response, error)
}

// GoRunner runs island rounds in-process against a pre-built space and
// evaluator. The coordinator runs every island on a goroutine of its own,
// so the evaluator must be safe for concurrent use (the compiled scenario
// evaluator is; see scenario.Compiled.Evaluator).
//
// A round attaches one boundary sink, dse.Options.Stats. At every
// boundary it fires the faultinject boundary point, then the heartbeat,
// then Stats when it is non-nil. Stats receives every island's
// per-boundary dse.Stats tagged with the island index — the hook the
// service's telemetry sampler attaches to. It is called from island
// goroutines concurrently, so the sink must be safe for concurrent use.
// ProcRunner intentionally does not forward stats: a worker process's
// value is crash containment, and widening its line protocol with
// per-boundary telemetry would couple the watchdog path to the sampler.
type GoRunner struct {
	Space *dse.Space
	Eval  dse.Evaluator
	Stats func(island int, s dse.Stats)
}

// RunRound implements Runner.
func (g *GoRunner) RunRound(ctx context.Context, req Request, beat Heartbeat) (*Response, error) {
	var snap *dse.Snapshot
	opts := dse.Options{
		Context:   ctx,
		StopAfter: req.StopAfter,
		Stats: func(s dse.Stats) {
			faultinject.Boundary(req.Job.JobID, req.Island, s.Step)
			if beat != nil {
				beat(s.Step)
			}
			if g.Stats != nil {
				g.Stats(req.Island, s)
			}
		},
		Checkpoint: func(s *dse.Snapshot) error { snap = s; return nil },
		Resume:     req.Resume,
	}

	search := req.Job.Search
	search.Seed = req.Seed
	res, err := search.Run(g.Space, g.Eval, opts)
	switch {
	case errors.Is(err, dse.ErrPaused):
		if snap == nil {
			return nil, fmt.Errorf("island %d paused without a snapshot", req.Island)
		}
		return &Response{Snapshot: snap}, nil
	case err != nil:
		return nil, err
	default:
		// A Result's front is storage of its own, so the wire form shares it.
		return &Response{Result: &Result{Front: res.Front, Evaluated: res.Evaluated, Infeasible: res.Infeasible}}, nil
	}
}

// ProcLine is one newline-delimited JSON message on a worker process's
// stdout: "beat" lines feed the watchdog, exactly one "done" or "error"
// line ends the round.
type ProcLine struct {
	Type     string    `json:"type"` // "beat" | "done" | "error"
	Step     int       `json:"step,omitempty"`
	Response *Response `json:"response,omitempty"`
	Error    string    `json:"error,omitempty"`
}
