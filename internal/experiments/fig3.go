// Package experiments reproduces every table and figure of the paper's
// evaluation (§5): Figure 3 (node-energy estimation accuracy), Figure 4
// (PRD estimation accuracy), the Eq. 9 delay validation against the
// packet-level simulator, the model-vs-simulation evaluation-speed
// comparison, and Figure 5 (the three-metric Pareto fronts against the
// energy/delay-only baseline).
//
// Each experiment runs one fixed configuration, the one the paper's
// evaluation uses, with fixed seeds, and returns a result struct with
// text/CSV renderers, so the paper's artifacts regenerate identically from
// `wsn-experiments` or the benchmark harness. An experiment's config holds
// only what a caller sets: the delay validation's run count and simulated
// time, Figure 5's search budget and MOSA cross-check, the scenario
// sweep's scenario names, and evaluation worker counts.
//
// Because the harnesses are deterministic and independent, they fan out
// across goroutines: RunJobsContext executes any subset of them on a
// bounded worker pool and returns outcomes in job order, so
// `wsn-experiments -workers N` regenerates the full evaluation
// concurrently with byte-identical, deterministically ordered output. The
// searches inside Fig5, the ϑ ablation and the scenario sweep additionally
// parallelize their own evaluation batches through dse.ParallelEvaluator,
// whose worker count never changes results (see the dse package
// documentation for the determinism guarantees).
package experiments

import (
	"fmt"
	"math"

	"wsndse/internal/casestudy"
	"wsndse/internal/core"
	"wsndse/internal/numeric"
	"wsndse/internal/scenario"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

// Fig3Config selects the energy-accuracy experiment. It has no settings:
// the experiment always runs the paper's grid.
type Fig3Config struct{}

// The Figure 3 grid: the paper evaluates f_µC ∈ {1, 8} MHz × CR ∈ {0.17,
// 0.23, 0.32, 0.38} for both applications, at one MAC operating point.
// Each cell's network is simulated for fig3SimDuration.
var (
	fig3MicroFreqs = []units.Hertz{1e6, 8e6}
	fig3CRs        = []float64{0.17, 0.23, 0.32, 0.38}
)

const (
	fig3BeaconOrder     = 3
	fig3SuperframeOrder = 2
	fig3PayloadBytes    = 48

	fig3SimDuration units.Seconds = 60
	fig3Seed                      = 7
)

// Fig3Row is one bar pair of Figure 3.
type Fig3Row struct {
	Kind       casestudy.Kind
	MicroFreq  units.Hertz
	CR         float64
	Model      units.Watts // analytical estimate (Eq. 7)
	Measured   units.Watts // device-level simulation
	ErrPct     float64
	Infeasible bool // duty cycle > 100 % (DWT at 1 MHz)
}

// Fig3Result aggregates the grid.
type Fig3Result struct {
	Rows []Fig3Row
	// The paper's headline numbers: average error per application and
	// the maximum across the grid (0.88 % CS, 0.13 % DWT, max 1.74 %).
	AvgErrDWT, AvgErrCS, MaxErr float64
	InfeasibleCells             int
}

// Fig3 runs the experiment: for every grid cell, evaluate the analytical
// node model and measure the same node in a full six-node packet-level
// simulation of the case-study network.
func Fig3(Fig3Config) (*Fig3Result, error) { return fig3(casestudy.DefaultNodes) }

// fig3 runs the grid on a network of the given size. The paper notes
// that "tests on different networks show a similar accuracy".
func fig3(nodes int) (*Fig3Result, error) {
	problem, err := scenario.NewProblem(scenario.ECGWardN(nodes), casestudy.DefaultCalibration())
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{}
	var dwtErrs, csErrs []float64

	for _, fuc := range fig3MicroFreqs {
		for _, cr := range fig3CRs {
			// One network per cell: every node at (cr, fuc) when
			// feasible; applications that cannot run at fuc fall
			// back to 8 MHz so the rest of the network still
			// operates (their rows are reported infeasible).
			params := scenario.Params{
				BeaconOrder:     fig3BeaconOrder,
				SuperframeOrder: fig3SuperframeOrder,
				PayloadBytes:    fig3PayloadBytes,
				CR:              make([]float64, nodes),
				MicroFreq:       make([]units.Hertz, nodes),
			}
			for i := range params.CR {
				params.CR[i] = cr
				params.MicroFreq[i] = fuc
			}

			net, err := problem.Network(params)
			if err != nil {
				return nil, err
			}
			feasible := make([]bool, len(net.Nodes))
			modelPower := make([]units.Watts, len(net.Nodes))
			for i, n := range net.Nodes {
				eb, err := n.Energy(net.MAC)
				switch {
				case core.IsInfeasible(err):
					feasible[i] = false
					params.MicroFreq[i] = 8e6 // keep the sim network runnable
				case err != nil:
					return nil, err
				default:
					feasible[i] = true
					modelPower[i] = eb.Total
				}
			}

			simCfg, err := problem.SimConfig(params, fig3SimDuration, fig3Seed)
			if err != nil {
				return nil, err
			}
			simRes, err := sim.Run(simCfg)
			if err != nil {
				return nil, err
			}

			// One row per application kind, using the first node of
			// each kind.
			for _, kind := range []casestudy.Kind{casestudy.KindDWT, casestudy.KindCS} {
				idx := firstOfKind(problem.Scenario.Nodes, kind)
				row := Fig3Row{Kind: kind, MicroFreq: fuc, CR: cr}
				if !feasible[idx] {
					row.Infeasible = true
					res.InfeasibleCells++
					res.Rows = append(res.Rows, row)
					continue
				}
				row.Model = modelPower[idx]
				row.Measured = simRes.Nodes[idx].Power.Total
				row.ErrPct = numeric.RelErr(float64(row.Model), float64(row.Measured))
				res.Rows = append(res.Rows, row)
				if kind == casestudy.KindDWT {
					dwtErrs = append(dwtErrs, row.ErrPct)
				} else {
					csErrs = append(csErrs, row.ErrPct)
				}
				if row.ErrPct > res.MaxErr {
					res.MaxErr = row.ErrPct
				}
			}
		}
	}
	res.AvgErrDWT = numeric.Mean(dwtErrs)
	res.AvgErrCS = numeric.Mean(csErrs)
	return res, nil
}

func firstOfKind(nodes []scenario.NodeSpec, k casestudy.Kind) int {
	for i, ns := range nodes {
		if ns.Kind == k {
			return i
		}
	}
	return -1
}

// Render writes the figure as a text table.
func (r *Fig3Result) Render(w writer) {
	fmt.Fprintf(w, "Figure 3 — node energy consumption: model vs device-level simulation\n")
	fmt.Fprintf(w, "%-5s %-7s %-5s %12s %12s %8s\n", "app", "f_µC", "CR", "model", "measured", "err")
	for _, row := range r.Rows {
		if row.Infeasible {
			fmt.Fprintf(w, "%-5s %-7v %-5.2f %12s %12s %8s\n",
				row.Kind, row.MicroFreq, row.CR, "—", "—", "infeas.")
			continue
		}
		fmt.Fprintf(w, "%-5s %-7v %-5.2f %10.4f mW %10.4f mW %7.2f%%\n",
			row.Kind, row.MicroFreq, row.CR,
			float64(row.Model)*1e3, float64(row.Measured)*1e3, row.ErrPct)
	}
	fmt.Fprintf(w, "avg err: DWT %.2f%%, CS %.2f%%; max %.2f%%; infeasible cells: %d\n",
		r.AvgErrDWT, r.AvgErrCS, r.MaxErr, r.InfeasibleCells)
	fmt.Fprintf(w, "paper:   DWT 0.13%%, CS 0.88%%; max 1.74%%; DWT infeasible at 1 MHz\n")
}

// Check verifies the headline claims with the reproduction tolerances: the
// model tracks the device-level reference within a few percent and the
// DWT-at-1-MHz infeasibility is detected.
func (r *Fig3Result) Check() error {
	if r.MaxErr > 2.5 {
		return fmt.Errorf("fig3: max estimation error %.2f%% exceeds 2.5%%", r.MaxErr)
	}
	if r.InfeasibleCells == 0 {
		return fmt.Errorf("fig3: expected DWT@1MHz infeasibility not detected")
	}
	for _, row := range r.Rows {
		if !row.Infeasible && (math.IsNaN(row.ErrPct) || row.Model <= 0 || row.Measured <= 0) {
			return fmt.Errorf("fig3: degenerate row %+v", row)
		}
	}
	return nil
}
