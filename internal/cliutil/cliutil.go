// Package cliutil holds the small parsing and formatting helpers shared by
// the command-line tools.
package cliutil

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/scenario"
	"wsndse/internal/units"
)

// StartProfiles starts CPU profiling into cpuPath and arranges a heap
// profile into memPath, honoring empty paths as "off". The returned stop
// function flushes both and must run before process exit (defer it in
// main). This is the -cpuprofile/-memprofile plumbing shared by the CLIs
// so hot-path regressions can be diagnosed with `go tool pprof`.
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "-memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the retained heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "-memprofile:", err)
			}
		}
	}, nil
}

// ParseFloats parses a comma-separated list of floats ("0.23,0.29,0.17").
func ParseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseHertz parses a comma-separated list of frequencies with optional
// k/M suffixes ("1M,8M" or "250").
func ParseHertz(s string) ([]units.Hertz, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]units.Hertz, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		mult := 1.0
		switch {
		case strings.HasSuffix(p, "M"), strings.HasSuffix(p, "m"):
			mult, p = 1e6, p[:len(p)-1]
		case strings.HasSuffix(p, "k"), strings.HasSuffix(p, "K"):
			mult, p = 1e3, p[:len(p)-1]
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad frequency %q: %w", p, err)
		}
		out = append(out, units.Hertz(v*mult))
	}
	return out, nil
}

// BuildParams assembles the parameters of an N-node case-study ward
// (scenario.ECGWardN) from the common command-line flags, replicating
// single values across all nodes. It rejects fewer than one node and a
// superframe the standard forbids (SO > BO).
func BuildParams(bo, so, payload, nodes int, crList, fucList string) (scenario.Params, error) {
	var p scenario.Params
	if nodes < 1 {
		return p, fmt.Errorf("-nodes: need at least 1 node, got %d", nodes)
	}
	sf := ieee.SuperframeConfig{BeaconOrder: bo, SuperframeOrder: so}
	if err := sf.Validate(); err != nil {
		return p, err
	}
	crs, err := ParseFloats(crList)
	if err != nil {
		return p, fmt.Errorf("-cr: %w", err)
	}
	fucs, err := ParseHertz(fucList)
	if err != nil {
		return p, fmt.Errorf("-fuc: %w", err)
	}
	if len(crs) == 1 {
		crs = repeatF(crs[0], nodes)
	}
	if len(fucs) == 1 {
		fucs = repeatH(fucs[0], nodes)
	}
	if len(crs) != nodes || len(fucs) != nodes {
		return p, fmt.Errorf("need 1 or %d values per node (got %d CRs, %d frequencies)",
			nodes, len(crs), len(fucs))
	}
	return scenario.Params{
		BeaconOrder:     bo,
		SuperframeOrder: so,
		PayloadBytes:    payload,
		CR:              crs,
		MicroFreq:       fucs,
	}, nil
}

func repeatF(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func repeatH(v units.Hertz, n int) []units.Hertz {
	out := make([]units.Hertz, n)
	for i := range out {
		out[i] = v
	}
	return out
}
