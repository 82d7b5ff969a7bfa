package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wsndse/internal/dse"
	"wsndse/internal/service"
)

func TestWriteCSV(t *testing.T) {
	front := []dse.Point{{Config: dse.Config{1, 2}, Objs: dse.Objectives{0.5, 0.25}, Feasible: true}}
	path := filepath.Join(t.TempDir(), "front.csv")
	if err := writeCSV(path, front, 2); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "energy_W,delay_s,config\n0.5,0.25,[1 2]\n"; string(got) != want {
		t.Errorf("wrote %q, want %q", got, want)
	}

	// A write the device refuses must fail the call, not only the
	// buffered flush after it returned.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if err := writeCSV("/dev/full", front, 2); err == nil {
		t.Error("writeCSV to /dev/full returned nil")
	}
}

// TestWarmStartDirIsReadOnly: -warm-start reads a result directory a
// server may still be writing. Opening one that holds more results than
// a store's default bound must leave every file as it was, and a path
// that does not exist is an error, not a new directory.
func TestWarmStartDirIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	const n = service.DefaultMaxResults + 6
	s, err := service.NewStore(service.StoreConfig{Dir: dir, MaxResults: 2 * n})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Put(service.StoredResult{
			Scenario: "ecg-ward", Algorithm: "nsga2", Fingerprint: fmt.Sprint("fp", i%7),
			Objectives: service.ObjectivesFull,
			Front:      []service.FrontPoint{{Config: []int{i, 1}, Objs: []float64{1, 2, 3}}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	before := readDir(t, dir)
	if len(before) != n {
		t.Fatalf("%d files in the result directory, want %d", len(before), n)
	}

	src, err := openWarmStartSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	if page, err := src.QueryResults(service.ResultQuery{}); err != nil || len(page) != n {
		t.Fatalf("warm-start source serves %d results (%v), want %d", len(page), err, n)
	}
	after := readDir(t, dir)
	if len(after) != len(before) {
		t.Fatalf("opening changed the directory from %d to %d files", len(before), len(after))
	}
	for name, data := range before {
		if !bytes.Equal(after[name], data) {
			t.Fatalf("opening changed or removed %s", name)
		}
	}

	missing := filepath.Join(t.TempDir(), "no-such-dir")
	if _, err := openWarmStartSource(missing); err == nil {
		t.Error("a missing result directory opened without an error")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("opening a missing result directory created it (stat: %v)", err)
	}
}

// readDir returns every file in dir by name with its bytes.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}
