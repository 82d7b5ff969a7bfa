// Command wsn-experiments regenerates the paper's evaluation artifacts:
// Figure 3 (energy estimation accuracy), Figure 4 (PRD estimation
// accuracy), the Eq. 9 delay validation, the evaluation-speed comparison,
// Figure 5 (tradeoff detection vs the energy/delay baseline), the two
// ablations, the calibration that produces the shipped quality
// polynomials, and the scenario sweep (one exploration + simulator
// cross-check per registered scenario, plus the GTS-starvation node-count
// sweep).
//
// The selected experiments fan out across a worker pool (-workers) and the
// searches inside fig5/ablation batch their evaluations across the same
// number of workers; output order and content are identical at any worker
// count.
//
// Example:
//
//	wsn-experiments -run all
//	wsn-experiments -run fig3,fig5 -workers 8
//	wsn-experiments -run delay -delay-runs 130
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"

	"wsndse/internal/casestudy"
	"wsndse/internal/cliutil"
	"wsndse/internal/experiments"
	"wsndse/internal/units"
)

func main() {
	var (
		run        = flag.String("run", "all", "experiments: all | comma list of fig3,fig4,delay,speed,fig5,ablation,scenarios,calibrate")
		delayRuns  = flag.Int("delay-runs", 130, "configurations for the delay validation (paper: 130)")
		simDur     = flag.Float64("sim-duration", 30, "simulated seconds per delay-validation run")
		pop        = flag.Int("pop", 96, "NSGA-II population for fig5")
		gen        = flag.Int("gen", 60, "NSGA-II generations for fig5")
		check      = flag.Bool("check", true, "verify each experiment's headline claims")
		csvDir     = flag.String("csvdir", "", "also write <experiment>.csv files into this directory")
		workers    = flag.Int("workers", 0, "concurrent experiments and per-search evaluation workers (<= 0: GOMAXPROCS)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stop, err := cliutil.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatalf("%v", err)
	}
	stopProfiles = stop
	defer stop()

	// SIGINT cancels cooperatively: running experiments stop at their next
	// search boundary, unstarted ones are skipped, and everything finished
	// is still rendered below — partial results flush instead of vanishing.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	selected, err := selectExperiments(*run)
	if err != nil {
		fatalf("%v", err)
	}

	if selected["calibrate"] {
		cal, err := casestudy.Calibrate(casestudy.CalibrationConfig{})
		if err != nil {
			fatalf("calibrate: %v", err)
		}
		fmt.Println("calibration (paste into casestudy.DefaultCalibration when regenerating):")
		fmt.Printf("CRs:         %v\n", cal.CRs)
		fmt.Printf("DWTMeasured: %.4f\n", cal.DWTMeasured)
		fmt.Printf("CSMeasured:  %.4f\n", cal.CSMeasured)
		fmt.Printf("DWTPoly:     %v\n", []float64(cal.DWTPoly))
		fmt.Printf("CSPoly:      %v\n", []float64(cal.CSPoly))
		de, ce := cal.EstimationErrors()
		fmt.Printf("mean abs err: DWT %.3f, CS %.3f PRD points\n\n", de, ce)
	}

	// The job list fixes both execution eligibility and render order; the
	// runner may finish jobs in any order but reports them in this one.
	// Exclusive jobs measure their own wall clock, so they run in a second,
	// sequential pass after the concurrent pool has drained rather than
	// co-scheduled with it (which would depress their throughput numbers).
	var jobs []experiments.Job
	var exclusive []bool
	add := func(key, name string, run func(ctx context.Context) (experiments.Report, error)) {
		if selected[key] {
			jobs = append(jobs, experiments.Job{Name: name, Run: run})
			exclusive = append(exclusive, key == "speed")
		}
	}
	add("fig3", "fig3", func(context.Context) (experiments.Report, error) {
		return experiments.Fig3(experiments.Fig3Config{})
	})
	add("fig4", "fig4", func(context.Context) (experiments.Report, error) {
		return experiments.Fig4(experiments.Fig4Config{})
	})
	add("delay", "delay", func(context.Context) (experiments.Report, error) {
		return experiments.DelayVal(experiments.DelayValConfig{
			Runs:        *delayRuns,
			SimDuration: units.Seconds(*simDur),
		})
	})
	add("speed", "speed", func(context.Context) (experiments.Report, error) {
		return experiments.Speed(experiments.SpeedConfig{})
	})
	add("fig5", "fig5", func(context.Context) (experiments.Report, error) {
		return experiments.Fig5(experiments.Fig5Config{
			PopulationSize: *pop,
			Generations:    *gen,
			RunMOSA:        true,
			Workers:        *workers,
		})
	})
	add("ablation", "ablation-theta", func(context.Context) (experiments.Report, error) {
		return experiments.ThetaAblation(experiments.ThetaAblationConfig{Workers: *workers})
	})
	add("ablation", "ablation-arrival", func(context.Context) (experiments.Report, error) {
		return experiments.ArrivalAblation(experiments.ArrivalAblationConfig{})
	})
	add("scenarios", "scenarios", func(ctx context.Context) (experiments.Report, error) {
		return experiments.ScenarioSweepContext(ctx, experiments.ScenarioSweepConfig{Workers: *workers})
	})

	outs := make([]experiments.Outcome, len(jobs))
	var pool, solo []experiments.Job
	var poolIdx, soloIdx []int
	for i, j := range jobs {
		if exclusive[i] {
			solo, soloIdx = append(solo, j), append(soloIdx, i)
		} else {
			pool, poolIdx = append(pool, j), append(poolIdx, i)
		}
	}
	for k, out := range experiments.RunJobsContext(ctx, pool, *workers) {
		outs[poolIdx[k]] = out
	}
	for k, out := range experiments.RunJobsContext(ctx, solo, 1) {
		outs[soloIdx[k]] = out
	}
	interrupted := false
	for _, out := range outs {
		if errors.Is(out.Err, context.Canceled) {
			fmt.Printf("[%s cancelled by interrupt]\n\n", out.Name)
			interrupted = true
			continue
		}
		if out.Err != nil {
			fatalf("%s: %v", out.Name, out.Err)
		}
		if *csvDir != "" {
			if r, ok := out.Report.(interface{ WriteCSV(io.Writer) error }); ok {
				writeCSV(*csvDir, out.Name, r)
			}
		}
		out.Report.Render(os.Stdout)
		if *check {
			if err := out.Report.Check(); err != nil {
				fatalf("%s check FAILED: %v", out.Name, err)
			}
			fmt.Printf("[%s checks passed]\n", out.Name)
		}
		fmt.Println()
	}
	if interrupted {
		fmt.Println("interrupted: completed experiments rendered above, the rest were cancelled")
		stopProfiles()
		os.Exit(130)
	}
}

// allExperiments is what -run all selects. calibrate, which regenerates
// the shipped polynomials rather than checking a claim, runs only when
// named.
var allExperiments = []string{"fig3", "fig4", "delay", "speed", "fig5", "ablation", "scenarios"}

// selectExperiments parses -run into the set of experiments to run. An
// entry that names no experiment is an error, so a typo cannot select
// nothing and exit 0.
func selectExperiments(run string) (map[string]bool, error) {
	selected := map[string]bool{}
	for _, name := range strings.Split(run, ",") {
		name = strings.TrimSpace(name)
		switch {
		case name == "all":
			for _, n := range allExperiments {
				selected[n] = true
			}
		case name == "calibrate" || slices.Contains(allExperiments, name):
			selected[name] = true
		default:
			return nil, fmt.Errorf("-run: unknown experiment %q (valid: all, %s, calibrate)", name, strings.Join(allExperiments, ", "))
		}
	}
	return selected, nil
}

// stopProfiles flushes any active -cpuprofile/-memprofile; fatalf runs it
// so error exits do not truncate a profile mid-write.
var stopProfiles = func() {}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wsn-experiments: "+format+"\n", args...)
	stopProfiles()
	os.Exit(1)
}

func writeCSV(dir, name string, r interface{ WriteCSV(io.Writer) error }) {
	path := dir + "/" + name + ".csv"
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := r.WriteCSV(f); err != nil {
		fatalf("%s: %v", name, err)
	}
	if err := f.Close(); err != nil {
		fatalf("%s: %v", name, err)
	}
	fmt.Printf("[%s.csv written]\n", name)
}
