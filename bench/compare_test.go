package main

import (
	"bytes"
	"strings"
	"testing"
)

func series(base float64, n int, step float64) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = base + float64(k%5)*step
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{"job_p50_s", "s", "lower", 0.1}
	higher := metricDef{"jobs_per_s", "1/s", "higher", 0.1}
	layer := metricDef{"model.eval_ns", "ns", "lower", 0}
	parent := series(100, 10, 1) // 100..104: spread ~2%
	for _, c := range []struct {
		name           string
		def            metricDef
		parent, change []float64
		want           string
	}{
		{"same distribution", lower, parent, series(100.5, 10, 1), "unchanged"},
		{"clear gain", lower, parent, series(80, 10, 1), "improved"},
		{"gain on the higher-is-better side", higher, parent, series(120, 10, 1), "improved"},
		{"gain over too few pairs", lower, series(100, 9, 1), series(80, 9, 1), "unchanged"},
		{"gain inside the parent's spread", lower, parent, series(99, 10, 1), "unchanged"},
		{"regression beyond the bound", lower, parent, series(115, 10, 1), "regressed"},
		{"throughput regression", higher, parent, series(85, 10, 1), "regressed"},
		{"regression within the bound", lower, parent, series(105, 10, 1), "unchanged"},
		{"spread wider than the bound", lower, parent, series(80, 10, 15), "unresolved"},
		{"wide spread but every change run better", lower, series(200, 10, 40), series(100, 10, 10), "improved"},
		{"per-layer gain", layer, parent, series(50, 10, 1), "improved"},
		{"per-layer loss has no bound", layer, parent, series(200, 10, 1), "worsened"},
	} {
		if got := judge(c.def, c.parent, c.change).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// compare reads -out records from two directories, pairs them by seed and
// exits 1 when an end-to-end metric regressed.
func TestCompareMain(t *testing.T) {
	parent, change, few := t.TempDir(), t.TempDir(), t.TempDir()
	save := func(dir string, seed int64, setup float64) {
		r := result{Correct: true, Attempted: 10}
		vals := map[string]float64{}
		for _, d := range endToEnd {
			vals[d.Name] = 1
		}
		vals["setup_s"] = setup
		r.fill(endToEnd, vals)
		if err := saveRecord(dir, runRecord{Workload: "ward-burst", Seed: seed, Result: r}); err != nil {
			t.Fatal(err)
		}
	}
	for s := int64(1); s <= 10; s++ {
		save(parent, s, 1+float64(s%3)*0.01)
		save(change, s, 1.5+float64(s%3)*0.01)
		if s <= 3 {
			save(few, s, 1)
		}
	}
	var out bytes.Buffer
	if code := compareMain([]string{parent, change}, &out); code != 1 {
		t.Errorf("regression: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("no regressed verdict in:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{parent, parent}, &out); code != 0 {
		t.Errorf("self-compare: exit %d, want 0\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "improved") || strings.Contains(out.String(), "regressed") {
		t.Errorf("self-compare claims a change:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{parent, few}, &out); code != 2 {
		t.Errorf("three change runs: exit %d, want 2\n%s", code, out.String())
	}
}
