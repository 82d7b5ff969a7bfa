package main

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
)

// TestSmoke drives every workload, untraced and traced, at a tiny job
// count through the real code path: the programs built from this
// checkout, a live wsn-serve, the in-process Manager and the direct dse
// rungs. Every metric must be reported, no operation may fail, and every
// output check — repeated specs, cross-rung fronts, the paper-validate
// digest — must hold.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the programs and drives every workload")
	}
	var log bytes.Buffer
	e, err := newEnv("..", &log)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	defer e.close()
	ctx := context.Background()
	for _, base := range workloads {
		w := *base
		w.warmup, w.digestJobs, w.rssJobs, w.traceWarmup, w.traceJobs = 2, 1, 1, 0, 2
		t.Run(w.name, func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Log(log.String())
				}
				log.Reset()
			}()
			for trace, defs := range [][]metricDef{endToEnd, perLayer} {
				res, err := runWorkload(ctx, e, &w, 2, 0.2, trace, filepath.Join(t.TempDir(), "spans.json"))
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("trace %d: metric %s missing or in the wrong unit (%+v)", trace, d.Name, m)
					}
					if trace == 0 && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %g, want a positive measurement", d.Name, m.Value)
					}
				}
			}
		})
	}
}
