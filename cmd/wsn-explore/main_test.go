package main

import (
	"os"
	"path/filepath"
	"testing"

	"wsndse/internal/dse"
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
