// Package faultinject provides process-wide fault-injection hooks for the
// exploration service's supervision layer. Production code consults the
// hooks at well-defined failure points — search boundaries, checkpoint
// file writes, result-store file writes — and a chaos test arms them to
// inject the faults the supervisor must survive: a panicking evaluator,
// a full disk, a torn (partially written) checkpoint.
//
// Every search boundary, of a plain job or of an island round, reaches
// the one Boundary point with the job ID, the island and the step. A
// plain job is the one-island run the checkpoint store already treats it
// as: it reports island 0.
//
// All hooks default to disabled and the disabled fast path is a single
// atomic load, so shipping the hook points in production builds costs
// nothing measurable (BenchmarkSupervisedJobOverhead pins this). Hooks
// are global to the process: tests that arm them must not run in
// parallel with each other and should defer Reset.
//
// The package also ships FlakyProxy, a byte-counting TCP proxy that
// kills connections mid-stream — the transport-level fault that drives
// the client's SSE auto-reconnect tests.
package faultinject

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// armed is the fast-path gate: when false (the default), every hook
// point returns immediately after one atomic load.
var armed atomic.Bool

var (
	mu             sync.Mutex
	boundaryHook   func(jobID string, island, step int)
	checkpointHook func(path string, data []byte) ([]byte, error)
	storeHook      func(path string) error
	migrationHook  func(jobID string, round, from, to int) error
)

// InjectedPanic is the value injected boundary panics carry, so chaos
// tests (and curious humans reading a failed job's stack) can tell an
// injected fault from a genuine bug.
type InjectedPanic struct {
	JobID string
	Step  int
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic in job %s at step %d", p.JobID, p.Step)
}

// InjectedIslandPanic is the value injected island-boundary panics
// carry: which island crashed at which search step.
type InjectedIslandPanic struct {
	JobID  string
	Island int
	Step   int
}

func (p InjectedIslandPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic in job %s island %d at step %d", p.JobID, p.Island, p.Step)
}

// rearm recomputes the fast-path gate. Caller holds mu.
func rearm() {
	armed.Store(boundaryHook != nil || checkpointHook != nil || storeHook != nil ||
		migrationHook != nil)
}

// Reset disarms every hook. Tests defer this.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	boundaryHook, checkpointHook, storeHook, migrationHook = nil, nil, nil, nil
	rearm()
}

// SetBoundaryHook installs fn at the search-boundary point (see
// Boundary): it runs on the search goroutine (an island's own goroutine,
// or inside the worker process), between generations/segments, and may
// panic to simulate an evaluator or island crash at an exact,
// reproducible step. nil disarms.
func SetBoundaryHook(fn func(jobID string, island, step int)) {
	mu.Lock()
	defer mu.Unlock()
	boundaryHook = fn
	rearm()
}

// SetCheckpointWriteHook installs fn at the checkpoint-file-write point:
// it receives the bytes about to be written and returns the bytes that
// actually reach the file — return a prefix to simulate a torn write
// (process killed mid-write), or an error to simulate a full disk. nil
// disarms.
func SetCheckpointWriteHook(fn func(path string, data []byte) ([]byte, error)) {
	mu.Lock()
	defer mu.Unlock()
	checkpointHook = fn
	rearm()
}

// SetStoreWriteHook installs fn at the result-store file-write point; a
// non-nil error fails the write. nil disarms.
func SetStoreWriteHook(fn func(path string) error) {
	mu.Lock()
	defer mu.Unlock()
	storeHook = fn
	rearm()
}

// PanicOnceAtStep arms the boundary hook to panic (with an InjectedPanic
// value) the first `times` times any job reaches boundary `step`.
func PanicOnceAtStep(step, times int) {
	var remaining atomic.Int64
	remaining.Store(int64(times))
	SetBoundaryHook(func(jobID string, _, s int) {
		if s == step && remaining.Add(-1) >= 0 {
			panic(InjectedPanic{JobID: jobID, Step: s})
		}
	})
}

// SetMigrationHook installs fn at the migration-transfer point: the
// coordinator calls Migration once per ring edge per migration boundary,
// and a non-nil error drops that transfer — the coordinator must retry
// it, never skip it, or determinism is lost. nil disarms.
func SetMigrationHook(fn func(jobID string, round, from, to int) error) {
	mu.Lock()
	defer mu.Unlock()
	migrationHook = fn
	rearm()
}

// PanicOnIslandAtStep arms the boundary hook to panic (with an
// InjectedIslandPanic value) the first `times` times island `island`
// reaches search step `step`.
func PanicOnIslandAtStep(island, step, times int) {
	var remaining atomic.Int64
	remaining.Store(int64(times))
	SetBoundaryHook(func(jobID string, isl, s int) {
		if isl == island && s == step && remaining.Add(-1) >= 0 {
			panic(InjectedIslandPanic{JobID: jobID, Island: isl, Step: s})
		}
	})
}

// DropMigrations arms the migration hook to fail the first `times`
// transfer attempts — the lossy-exchange fault. Retried attempts count
// again, so times=3 with a retrying coordinator means the fourth attempt
// succeeds.
func DropMigrations(times int) {
	var remaining atomic.Int64
	remaining.Store(int64(times))
	SetMigrationHook(func(jobID string, round, from, to int) error {
		if remaining.Add(-1) >= 0 {
			return fmt.Errorf("faultinject: dropped migration %d->%d at round %d", from, to, round)
		}
		return nil
	})
}

// Boundary is the hook point every search calls at every boundary: the
// service's plain-job sink with island 0, and the island runner with its
// island. Disabled: one atomic load.
func Boundary(jobID string, island, step int) {
	if !armed.Load() {
		return
	}
	mu.Lock()
	fn := boundaryHook
	mu.Unlock()
	if fn != nil {
		fn(jobID, island, step)
	}
}

// Migration is the hook point for one migrant transfer on the ring; a
// non-nil error means the transfer was dropped and must be retried.
func Migration(jobID string, round, from, to int) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	fn := migrationHook
	mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(jobID, round, from, to)
}

// CheckpointWrite is the hook point for checkpoint file writes: it maps
// the intended bytes to the bytes that reach disk, or fails the write.
func CheckpointWrite(path string, data []byte) ([]byte, error) {
	if !armed.Load() {
		return data, nil
	}
	mu.Lock()
	fn := checkpointHook
	mu.Unlock()
	if fn == nil {
		return data, nil
	}
	return fn(path, data)
}

// StoreWrite is the hook point for result-store file writes.
func StoreWrite(path string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	fn := storeHook
	mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(path)
}

// FlakyProxy is a TCP proxy that forcibly closes every proxied
// connection after KillAfter response bytes — the "connection died
// mid-SSE-stream" fault. Each reconnect gets a fresh allowance, so a
// client that resumes via Last-Event-ID makes forward progress while a
// client that restarts from scratch livelocks.
type FlakyProxy struct {
	target    string
	killAfter int64
	ln        net.Listener
	kills     atomic.Int64
	conns     atomic.Int64
	wg        sync.WaitGroup
	closed    atomic.Bool

	liveMu sync.Mutex
	live   map[net.Conn]struct{}
}

// NewFlakyProxy starts a proxy in front of target (a host:port). Every
// connection's server→client stream is cut after killAfter bytes;
// killAfter <= 0 never kills (a transparent proxy).
func NewFlakyProxy(target string, killAfter int64) (*FlakyProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &FlakyProxy{target: target, killAfter: killAfter, ln: ln, live: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (host:port).
func (p *FlakyProxy) Addr() string { return p.ln.Addr().String() }

// Kills reports how many connections the proxy has cut so far.
func (p *FlakyProxy) Kills() int { return int(p.kills.Load()) }

// Conns reports how many connections the proxy has accepted.
func (p *FlakyProxy) Conns() int { return int(p.conns.Load()) }

// Close stops accepting, force-closes every live relay (an idle
// keep-alive connection would otherwise pin its relay goroutine until
// the client's idle timeout), and waits for the relays to drain.
func (p *FlakyProxy) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.ln.Close()
	p.liveMu.Lock()
	for conn := range p.live {
		conn.Close()
	}
	p.liveMu.Unlock()
	p.wg.Wait()
}

// track registers conn while open; the returned func deregisters it. Close
// sets closed before its sweep under liveMu, so a later conn is closed here.
func (p *FlakyProxy) track(conn net.Conn) func() {
	p.liveMu.Lock()
	p.live[conn] = struct{}{}
	if p.closed.Load() {
		conn.Close()
	}
	p.liveMu.Unlock()
	return func() {
		p.liveMu.Lock()
		delete(p.live, conn)
		p.liveMu.Unlock()
	}
}

func (p *FlakyProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.conns.Add(1)
		p.wg.Add(1)
		go p.relay(conn)
	}
}

// relay pumps bytes both ways, cutting the server→client direction after
// the byte allowance. Closing both conns unblocks the opposite copier.
func (p *FlakyProxy) relay(client net.Conn) {
	defer p.wg.Done()
	defer p.track(client)()
	server, err := net.Dial("tcp", p.target)
	if err != nil {
		client.Close()
		return
	}
	defer p.track(server)()
	// Both copiers are wg-tracked so Close() reaps them: an untracked
	// copier blocked in io.Copy on an idle keep-alive connection would
	// outlive Close and leak past the proxy's lifetime.
	done := make(chan struct{}, 2)
	p.wg.Add(1)
	go func() { // client → server (requests)
		defer p.wg.Done()
		io.Copy(server, client)
		done <- struct{}{}
	}()
	p.wg.Add(1)
	go func() { // server → client (responses), byte-bounded
		defer p.wg.Done()
		if p.killAfter > 0 {
			n, _ := io.CopyN(client, server, p.killAfter)
			if n == p.killAfter {
				p.kills.Add(1)
			}
		} else {
			io.Copy(client, server)
		}
		done <- struct{}{}
	}()
	<-done
	client.Close()
	server.Close()
	<-done
}
