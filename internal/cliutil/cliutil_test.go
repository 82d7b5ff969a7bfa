package cliutil

import (
	"os"
	"testing"

	"wsndse/internal/units"
)

func TestParseFloats(t *testing.T) {
	got, err := ParseFloats("0.17, 0.23,0.38")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0.17 || got[2] != 0.38 {
		t.Errorf("ParseFloats = %v", got)
	}
	if _, err := ParseFloats(""); err == nil {
		t.Error("empty accepted")
	}
	if _, err := ParseFloats("1,x,3"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestParseHertz(t *testing.T) {
	got, err := ParseHertz("1M, 8m, 250k,100")
	if err != nil {
		t.Fatal(err)
	}
	want := []units.Hertz{1e6, 8e6, 250e3, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("value %d = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := ParseHertz(""); err == nil {
		t.Error("empty accepted")
	}
	if _, err := ParseHertz("8Q"); err == nil {
		t.Error("bad suffix accepted")
	}
}

func TestBuildParamsBroadcast(t *testing.T) {
	p, err := BuildParams(3, 2, 48, 6, "0.23", "8M")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.CR) != 6 || len(p.MicroFreq) != 6 {
		t.Fatalf("broadcast failed: %+v", p)
	}
	for i := range p.CR {
		if p.CR[i] != 0.23 || p.MicroFreq[i] != 8e6 {
			t.Errorf("node %d: %g, %v", i, p.CR[i], p.MicroFreq[i])
		}
	}
}

func TestBuildParamsPerNode(t *testing.T) {
	p, err := BuildParams(3, 2, 48, 3, "0.17,0.23,0.38", "1M,2M,8M")
	if err != nil {
		t.Fatal(err)
	}
	if p.CR[1] != 0.23 || p.MicroFreq[2] != 8e6 {
		t.Errorf("per-node values lost: %+v", p)
	}
}

func TestBuildParamsErrors(t *testing.T) {
	if _, err := BuildParams(3, 2, 48, 6, "0.2,0.3", "8M"); err == nil {
		t.Error("wrong CR count accepted")
	}
	if _, err := BuildParams(3, 2, 48, 6, "0.2", "8M,1M"); err == nil {
		t.Error("wrong frequency count accepted")
	}
	if _, err := BuildParams(3, 2, 48, 6, "junk", "8M"); err == nil {
		t.Error("bad CR accepted")
	}
	if _, err := BuildParams(3, 2, 48, 6, "0.2", "junk"); err == nil {
		t.Error("bad frequency accepted")
	}
	// SO > BO is structurally invalid.
	if _, err := BuildParams(1, 3, 48, 6, "0.2", "8M"); err == nil {
		t.Error("invalid superframe accepted")
	}
	// A non-positive node count must fail, not panic.
	for _, nodes := range []int{0, -1, -2} {
		if _, err := BuildParams(3, 2, 48, nodes, "0.2", "8M"); err == nil {
			t.Errorf("%d nodes accepted", nodes)
		}
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.out", dir+"/mem.out"
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	// Both off: no-op stop, no files.
	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	// Unwritable CPU path errors up front.
	if _, err := StartProfiles(dir+"/nope/cpu.out", ""); err == nil {
		t.Error("unwritable -cpuprofile path accepted")
	}
}
