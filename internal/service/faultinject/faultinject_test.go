package faultinject

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// proxyGoroutines counts live goroutines currently executing FlakyProxy
// code, by scanning a full-process stack dump — goleak-style accounting
// in plain stdlib.
func proxyGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "faultinject.(*FlakyProxy)")
}

// TestFlakyProxyCloseReapsGoroutines is the leak regression test: after
// Close returns, no relay or copier goroutine may still be running —
// including the per-connection io.Copy goroutines, which used to be
// untracked and could outlive Close on idle keep-alive connections.
func TestFlakyProxyCloseReapsGoroutines(t *testing.T) {
	before := proxyGoroutines()

	// A backend that accepts and then sits idle, so the proxied
	// connection is parked in io.Copy with no traffic — the exact state
	// that leaked.
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	go func() {
		for {
			conn, err := backend.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, conn) }()
		}
	}()

	p, err := NewFlakyProxy(backend.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	for i := 0; i < 4; i++ {
		conn, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		fmt.Fprintf(conn, "hello %d\n", i)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	// Wait until the relays are actually up before closing.
	deadline := time.Now().Add(2 * time.Second)
	for p.Conns() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Conns() < 4 {
		t.Fatalf("proxy accepted %d conns, want 4", p.Conns())
	}

	p.Close()

	// Close must have reaped everything; allow a brief grace for the
	// runtime to retire exiting goroutines from the stack dump.
	for time.Now().Before(deadline) {
		if proxyGoroutines() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("after Close: %d FlakyProxy goroutines still running (baseline %d)",
		proxyGoroutines(), before)
}

// TestFlakyProxyCloseRacesRelayStart closes the proxy as soon as it has
// counted its connections, while their relays may still be registering
// them. A connection registered after Close swept the live set must be
// closed too: its idle copiers would otherwise keep Close waiting.
func TestFlakyProxyCloseRacesRelayStart(t *testing.T) {
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	go func() {
		for {
			conn, err := backend.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, conn) }()
		}
	}()
	for i := 0; i < 200; i++ {
		p, err := NewFlakyProxy(backend.Addr().String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		var conns []net.Conn
		for range 4 {
			conn, err := net.Dial("tcp", p.Addr())
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, conn)
		}
		for p.Conns() < 4 {
			runtime.Gosched()
		}
		closed := make(chan struct{})
		go func() { p.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(3 * time.Second):
			t.Fatalf("iteration %d: Close still waiting after 3s", i)
		}
		for _, c := range conns {
			c.Close()
		}
	}
}

func TestIslandHookPanicsOnTarget(t *testing.T) {
	defer Reset()
	PanicOnIslandAtStep(2, 3, 1)

	Boundary("j1", 1, 0, 3) // wrong island: no panic
	Boundary("j1", 2, 0, 2) // wrong step: no panic

	caught := func() (p any) {
		defer func() { p = recover() }()
		Boundary("j1", 2, 5, 3)
		return nil
	}()
	ip, ok := caught.(InjectedIslandPanic)
	if !ok {
		t.Fatalf("recovered %v, want InjectedIslandPanic", caught)
	}
	if ip.Island != 2 || ip.Step != 3 || ip.Executor != 5 || ip.JobID != "j1" {
		t.Fatalf("panic payload %+v", ip)
	}
	Boundary("j1", 2, 5, 3) // budget spent: no panic
}

func TestPanicOnExecutorAtStep(t *testing.T) {
	defer Reset()
	PanicOnExecutorAtStep(1, 4, 2)
	hits := 0
	for _, isl := range []int{0, 3, 6} { // different islands, same executor
		func() {
			defer func() {
				if recover() != nil {
					hits++
				}
			}()
			Boundary("j1", isl, 1, 4)
		}()
	}
	if hits != 2 {
		t.Fatalf("executor hook fired %d times, want 2", hits)
	}
}

func TestDropMigrations(t *testing.T) {
	defer Reset()
	DropMigrations(2)
	var errs int
	for i := 0; i < 4; i++ {
		if err := Migration("j1", 1, 0, 1); err != nil {
			errs++
		}
	}
	if errs != 2 {
		t.Fatalf("dropped %d transfers, want 2", errs)
	}
}

func TestResetDisarmsIslandHooks(t *testing.T) {
	PanicOnIslandAtStep(0, 1, 100)
	DropMigrations(100)
	Reset()
	Boundary("j1", 0, 0, 1) // must not panic
	if err := Migration("j1", 0, 0, 1); err != nil {
		t.Fatalf("Migration after Reset: %v", err)
	}
	if armed.Load() {
		t.Fatal("fast-path gate still armed after Reset")
	}
}

func TestMigrationHookSeesRingEdge(t *testing.T) {
	defer Reset()
	type edge struct{ round, from, to int }
	var got []edge
	SetMigrationHook(func(jobID string, round, from, to int) error {
		got = append(got, edge{round, from, to})
		return nil
	})
	Migration("j1", 2, 3, 0)
	if len(got) != 1 || got[0] != (edge{2, 3, 0}) {
		t.Fatalf("hook saw %v", got)
	}
	if err := Migration("j1", 2, 3, 0); err != nil {
		t.Fatal(errors.Unwrap(err))
	}
}
