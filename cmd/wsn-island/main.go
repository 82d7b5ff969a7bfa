// Command wsn-island is the island-model worker process: it reads one
// island.Request as JSON on stdin, compiles the scenario's evaluation
// pipeline, runs the island's round (to the requested StopAfter
// boundary, or to completion), and reports newline-delimited JSON
// island.ProcLine messages on stdout — "beat" at every search boundary,
// then exactly one "done" (with the Response) or "error".
//
// It is not meant to be run by hand: the exploration service's island
// coordinator spawns one per island round through island.ProcRunner and
// supervises it — a killed or crashed worker costs one round, which the
// coordinator replays from the island's last checkpoint.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"wsndse/internal/casestudy"
	"wsndse/internal/cliutil"
	"wsndse/internal/scenario"
	"wsndse/internal/service/island"
)

func main() {
	if err := run(); err != nil {
		// Best-effort structured error; the stderr copy survives even if
		// stdout is already broken.
		writeLine(island.ProcLine{Type: "error", Error: err.Error()})
		fmt.Fprintln(os.Stderr, "wsn-island:", err)
		os.Exit(1)
	}
}

var stdoutMu sync.Mutex

func writeLine(msg island.ProcLine) {
	stdoutMu.Lock()
	defer stdoutMu.Unlock()
	json.NewEncoder(os.Stdout).Encode(msg)
}

func run() error {
	var req island.Request
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}

	// A "family/member" name enables its family first, as in the CLIs,
	// so a family job's rounds compile the member the service ran.
	sc, err := cliutil.LookupScenario(req.Job.Scenario)
	if err != nil {
		return err
	}
	problem, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
	if err != nil {
		return err
	}
	compiled, err := problem.Compile()
	if err != nil {
		return err
	}

	// SIGTERM cancels the round cooperatively at the next boundary; the
	// coordinator treats the resulting error as a crash and replays the
	// round elsewhere. SIGKILL needs no handling — dying *is* the
	// protocol.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	runner := &island.GoRunner{Space: problem.Space(), Eval: compiled.Evaluator()}
	resp, err := runner.RunRound(ctx, req, func(step int) {
		writeLine(island.ProcLine{Type: "beat", Step: step})
	})
	if err != nil {
		return err
	}
	writeLine(island.ProcLine{Type: "done", Response: resp})
	return nil
}
