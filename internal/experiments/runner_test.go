package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
)

type stubReport struct{ id int }

func (r stubReport) Render(w io.Writer) { fmt.Fprintf(w, "report %d", r.id) }
func (r stubReport) Check() error       { return nil }

// TestRunJobsDeterministicOrder fans out jobs that finish in scrambled
// order and checks outcomes still come back in job order, with errors
// attached to the right job.
func TestRunJobsDeterministicOrder(t *testing.T) {
	const n = 16
	var running atomic.Int32
	var sawConcurrent atomic.Bool
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Name: fmt.Sprintf("job%02d", i),
			Run: func(context.Context) (Report, error) {
				if running.Add(1) > 1 {
					sawConcurrent.Store(true)
				}
				defer running.Add(-1)
				// Burn scheduling-dependent time so completion order
				// scrambles relative to submission order.
				s := 0
				for k := 0; k < (n-i)*1000; k++ {
					s += k
				}
				_ = s
				if i%5 == 3 {
					return nil, fmt.Errorf("job %d failed", i)
				}
				return stubReport{id: i}, nil
			},
		}
	}
	for _, workers := range []int{1, 4} {
		outs := RunJobsContext(context.Background(), jobs, workers)
		if len(outs) != n {
			t.Fatalf("workers=%d: got %d outcomes, want %d", workers, len(outs), n)
		}
		for i, out := range outs {
			if out.Name != jobs[i].Name {
				t.Fatalf("workers=%d: outcome %d is %q, want %q", workers, i, out.Name, jobs[i].Name)
			}
			if i%5 == 3 {
				if out.Err == nil || !strings.Contains(out.Err.Error(), fmt.Sprint(i)) {
					t.Fatalf("workers=%d: job %d error = %v", workers, i, out.Err)
				}
				continue
			}
			if out.Err != nil {
				t.Fatalf("workers=%d: job %d unexpected error %v", workers, i, out.Err)
			}
			var sb strings.Builder
			out.Report.Render(&sb)
			if sb.String() != fmt.Sprintf("report %d", i) {
				t.Fatalf("workers=%d: job %d rendered %q", workers, i, sb.String())
			}
		}
	}
	if !sawConcurrent.Load() {
		t.Log("note: no overlap observed (single-CPU machine?); ordering still verified")
	}
}

// TestFig5WorkerInvariance checks the determinism guarantee end to end on
// the real case study: the fronts Fig5 finds do not depend on the worker
// count.
func TestFig5WorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study DSE in -short mode")
	}
	seq, err := Fig5(Fig5Config{PopulationSize: 16, Generations: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig5(Fig5Config{PopulationSize: 16, Generations: 4, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.FullFront) != len(par.FullFront) || seq.EvalsFull != par.EvalsFull ||
		len(seq.BaselineFront) != len(par.BaselineFront) || seq.EvalsBaseline != par.EvalsBaseline {
		t.Fatalf("worker count changed fig5: seq front %d/%d evals %d/%d, par front %d/%d evals %d/%d",
			len(seq.FullFront), len(seq.BaselineFront), seq.EvalsFull, seq.EvalsBaseline,
			len(par.FullFront), len(par.BaselineFront), par.EvalsFull, par.EvalsBaseline)
	}
	for i := range seq.FullFront {
		a, b := seq.FullFront[i], par.FullFront[i]
		for j := range a.Objs {
			if a.Objs[j] != b.Objs[j] {
				t.Fatalf("full front point %d objective %d differs: %g vs %g", i, j, a.Objs[j], b.Objs[j])
			}
		}
	}
}
