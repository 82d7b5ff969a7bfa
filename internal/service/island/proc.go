package island

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// ProcRunner executes island rounds in supervised child worker
// processes: one process per round, fed the JSON Request on stdin,
// reporting newline-delimited ProcLine messages on stdout ("beat" lines
// feed the watchdog, one "done" or "error" line ends the round). The
// process-per-round shape is what makes SIGKILL a recoverable fault: a
// killed worker loses only its current round, which the coordinator
// replays from the island's unchanged snapshot.
type ProcRunner struct {
	// Bin is the worker binary (cmd/wsn-island).
	Bin string

	// OnSpawn, when non-nil, observes every worker process right after
	// start — chaos tests use the pid to SIGKILL a worker mid-round.
	OnSpawn func(island, pid int)
}

const (
	// stderrLimit bounds how much worker stderr is kept for error reports.
	stderrLimit = 8 << 10
	// waitDelay bounds how long Wait lingers after context cancellation
	// before force-closing the worker's pipes.
	waitDelay = 5 * time.Second
)

// RunRound implements Runner.
func (p *ProcRunner) RunRound(ctx context.Context, req Request, beat Heartbeat) (*Response, error) {
	input, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, p.Bin)
	cmd.Stdin = bytes.NewReader(input)
	var stderr limitedBuffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.WaitDelay = waitDelay
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("island %d: start worker: %w", req.Island, err)
	}
	if p.OnSpawn != nil {
		p.OnSpawn(req.Island, cmd.Process.Pid)
	}

	resp, err := readRound(stdout, req.Island, beat)
	// Drain so the worker never blocks on a full stdout pipe, then reap.
	io.Copy(io.Discard, stdout)
	waitErr := cmd.Wait()
	if errors.Is(err, errNoResult) && waitErr != nil {
		// Killed (or exited) before reporting: the round is lost, the
		// island's snapshot is not. Surface the cause for the crash event.
		if detail := strings.TrimSpace(stderr.String()); detail != "" {
			return nil, fmt.Errorf("island %d: worker died mid-round: %v (stderr: %s)", req.Island, waitErr, detail)
		}
		return nil, fmt.Errorf("island %d: worker died mid-round: %v", req.Island, waitErr)
	}
	return resp, err
}

var errNoResult = errors.New("worker exited without a result")

// readRound reads one round from a worker's stdout: "beat" lines feed
// beat, the first "done" line returns its response, and any other line,
// or the end of the stream (errNoResult), is an error.
func readRound(r io.Reader, island int, beat Heartbeat) (*Response, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<20) // snapshots can be large
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var msg ProcLine
		if err := json.Unmarshal(line, &msg); err != nil {
			return nil, fmt.Errorf("island %d: undecodable worker line: %v", island, err)
		}
		switch msg.Type {
		case "beat":
			if beat != nil {
				beat(msg.Step)
			}
		case "done":
			if msg.Response == nil {
				return nil, fmt.Errorf("island %d: worker reported done without a response", island)
			}
			return msg.Response, nil
		case "error":
			return nil, fmt.Errorf("island %d: worker: %s", island, msg.Error)
		default:
			return nil, fmt.Errorf("island %d: unknown worker message type %q", island, msg.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("island %d: reading worker output: %w", island, err)
	}
	return nil, fmt.Errorf("island %d: %w", island, errNoResult)
}

// limitedBuffer keeps the first stderrLimit bytes written to it.
type limitedBuffer struct {
	buf bytes.Buffer
}

func (b *limitedBuffer) Write(p []byte) (int, error) {
	n := len(p)
	if room := stderrLimit - b.buf.Len(); room > 0 {
		if len(p) > room {
			p = p[:room]
		}
		b.buf.Write(p)
	}
	return n, nil
}

func (b *limitedBuffer) String() string { return b.buf.String() }
