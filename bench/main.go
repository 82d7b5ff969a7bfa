// Command wsnbench is the wsndse performance benchmark: it builds
// wsn-serve and wsn-experiments from the checkout, drives four workloads
// against the real binaries, checks every output, and prints each
// metric by name and unit. The last line of standard output is the
// run's result as one JSON object.
//
//	bash bench/run.sh --workload ward-explore --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload family-mosa --trace 1   # per-layer ladder
//	bash bench/run.sh compare runs/parent runs/change    # records saved with --out
//
// See bench/README.md for the workloads, the metrics and the baseline.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// defaultSeconds is the timed window of an untraced run, BENCHMARK.json's
// run_seconds.
const defaultSeconds = 10

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wsnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: ward-explore, ward-burst, family-mosa, paper-validate or all")
	seed := fs.Int64("seed", 1, "workload seed; the programs receive only the inputs generated from it")
	seconds := fs.Float64("seconds", defaultSeconds, "timed window of an untraced run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced end-to-end run")
	out := fs.String("out", "", "also save each run's result as a record in this directory (the input of compare)")
	spans := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "wsnbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "wsnbench: -seconds must be positive")
		return 2
	}
	run := workloads
	if *name != "all" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "wsnbench:", err)
			return 2
		}
		run = []*workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(".", stderr)
	if err != nil {
		fmt.Fprintln(stderr, "wsnbench:", err)
		return 1
	}
	defer e.close()

	code := 0
	for _, w := range run {
		res, err := runWorkload(ctx, e, w, *seed, *seconds, *trace, *spans)
		if err != nil {
			fmt.Fprintf(stderr, "wsnbench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		fmt.Fprintf(stderr, "%s (seed %d, trace %d): correct=%v attempted=%d failed=%d\n",
			w.name, *seed, *trace, res.Correct, res.Attempted, res.Failed)
		for _, d := range defs {
			fmt.Fprintf(stderr, "  %-30s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
		}
		if *out != "" {
			if err := saveRecord(*out, runRecord{Workload: w.name, Seed: *seed, Trace: *trace, Result: *res}); err != nil {
				fmt.Fprintln(stderr, "wsnbench:", err)
				code = 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "wsnbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct || res.Failed > 0 {
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics). An interrupted run reports no result.
func runWorkload(ctx context.Context, e *env, w *workload, seed int64, seconds float64, trace int, spans string) (*result, error) {
	var res *result
	var err error
	switch d := time.Duration(seconds * float64(time.Second)); {
	case trace == 1:
		if spans == "" {
			spans = filepath.Join(e.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		}
		res, err = e.runTraced(ctx, w, seed, spans)
	case w.passes:
		res, err = e.runPassWorkload(ctx, w, seed, d)
	default:
		res, err = e.runServerWorkload(ctx, w, seed, d)
	}
	if err == nil && ctx.Err() != nil {
		return nil, fmt.Errorf("interrupted: %w", ctx.Err())
	}
	return res, err
}
