package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestScenarioSweep(t *testing.T) {
	res, err := ScenarioSweepContext(context.Background(), ScenarioSweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("swept only %d scenarios", len(res.Rows))
	}
	seen := map[string]bool{}
	for _, row := range res.Rows {
		seen[row.Name] = true
	}
	for _, want := range []string{"ecg-ward", "mixed-ward", "athletes", "dense-gts"} {
		if !seen[want] {
			t.Errorf("scenario %q missing from sweep", want)
		}
	}

	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "dense-gts") || !strings.Contains(out, "starvation") {
		t.Errorf("render missing sections:\n%s", out)
	}

	buf.Reset()
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < len(res.Rows)+len(res.Starvation)+1 {
		t.Errorf("CSV has %d lines for %d rows + %d starvation entries",
			len(lines), len(res.Rows), len(res.Starvation))
	}
	if !strings.HasPrefix(lines[0], "scenario,kind,energy_w") {
		t.Errorf("unexpected CSV header %q", lines[0])
	}
}

// TestScenarioSweepWorkerInvariance asserts the sweep is bit-identical
// at different worker counts — the PR-1 determinism contract extended to
// the scenario harness.
func TestScenarioSweepWorkerInvariance(t *testing.T) {
	seq, err := ScenarioSweepContext(context.Background(), ScenarioSweepConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ScenarioSweepContext(context.Background(), ScenarioSweepConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("sweep results differ between 1 and 4 workers")
	}
}

func TestScenarioSweepUnknownScenario(t *testing.T) {
	cfg := ScenarioSweepConfig{Names: []string{"no-such-scenario"}, Workers: 1}
	if _, err := ScenarioSweepContext(context.Background(), cfg); err == nil {
		t.Error("unknown scenario name accepted")
	}
}

func TestStarvationCliff(t *testing.T) {
	res, err := ScenarioSweepContext(context.Background(), ScenarioSweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Starvation {
		if s.Nodes <= 7 && s.Feasible == 0 {
			t.Errorf("%d nodes: no feasible configurations sampled", s.Nodes)
		}
		if s.Nodes > 7 && s.Feasible > 0 {
			t.Errorf("%d nodes: %d feasible configurations past the 7-slot budget", s.Nodes, s.Feasible)
		}
	}
}
