package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"wsndse/internal/casestudy"
	"wsndse/internal/core"
	"wsndse/internal/dse"
	"wsndse/internal/numeric"
	"wsndse/internal/scenario"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

// ScenarioSweepConfig parameterizes the scenario sweep: one NSGA-II
// exploration plus a simulator cross-check per registered scenario, and a
// GTS-starvation node-count sweep walking the dense workload over the
// 7-slot cliff.
type ScenarioSweepConfig struct {
	// Names selects scenarios; nil sweeps every registered one.
	Names []string

	// Workers bounds both the concurrent scenario jobs and each search's
	// evaluation pool; <= 0 selects GOMAXPROCS. Results are identical at
	// any worker count.
	Workers int
}

// The sweep's sizes: each scenario's search budget, and the node counts
// of the starvation sweep with the seeded random configurations it
// samples per count. Each cross-check simulates for the scenario's own
// SimDuration.
var sweepStarvationNodes = []int{4, 5, 6, 7, 8, 9}

const (
	sweepPopulation        = 32
	sweepGenerations       = 12
	sweepSeed              = 11
	sweepStarvationSamples = 200
)

// ScenarioRow is one scenario's outcome: the exploration bookkeeping and
// the model-vs-simulator cross-check at the balanced front pick.
type ScenarioRow struct {
	Name      string
	Stress    string
	SpaceSize float64
	Genes     int

	Evaluated  int
	Infeasible int
	Front      []dse.Point

	Balanced       dse.Point
	BalancedParams scenario.Params

	// ModelEnergy is the balanced point's E_net; SimEnergy combines the
	// simulated per-node powers with the same Eq. 8 weight; ErrPct is
	// their relative difference.
	ModelEnergy units.Watts
	SimEnergy   units.Watts
	ErrPct      float64
	Stable      bool
	// BlockArrivals notes that the scenario breaks the Eq. 9 uniformity
	// assumption, so no delay-bound comparison is made.
	BlockArrivals bool
}

// Render writes the row's block (also the per-job Report output).
func (r *ScenarioRow) Render(w io.Writer) {
	fmt.Fprintf(w, "%-12s space %.3g (%d genes): evaluated %d (%d infeasible), front %d\n",
		r.Name, r.SpaceSize, r.Genes, r.Evaluated, r.Infeasible, len(r.Front))
	fmt.Fprintf(w, "             balanced pick: BO=%d SO=%d L=%d — model %.4f mW, sim %.4f mW (err %.2f%%), stable=%v\n",
		r.BalancedParams.BeaconOrder, r.BalancedParams.SuperframeOrder, r.BalancedParams.PayloadBytes,
		float64(r.ModelEnergy)*1e3, float64(r.SimEnergy)*1e3, r.ErrPct, r.Stable)
}

// Check verifies the row: a non-empty front and a simulator that broadly
// agrees with the model at the chosen configuration.
func (r *ScenarioRow) Check() error {
	if len(r.Front) == 0 {
		return fmt.Errorf("scenario %s: empty front", r.Name)
	}
	if r.ErrPct > 10 {
		return fmt.Errorf("scenario %s: model-vs-sim energy error %.1f%% exceeds 10%%", r.Name, r.ErrPct)
	}
	if !r.Stable && !r.BlockArrivals {
		return fmt.Errorf("scenario %s: balanced configuration is unstable in simulation", r.Name)
	}
	return nil
}

// StarvationRow is one node count of the GTS-starvation sweep.
type StarvationRow struct {
	Nodes    int
	Sampled  int
	Feasible int
}

// FeasiblePct is the feasible share in percent.
func (r StarvationRow) FeasiblePct() float64 {
	if r.Sampled == 0 {
		return 0
	}
	return float64(r.Feasible) / float64(r.Sampled) * 100
}

// ScenarioSweepResult aggregates the sweep.
type ScenarioSweepResult struct {
	Rows       []*ScenarioRow
	Starvation []StarvationRow
}

// ScenarioSweepContext runs one exploration + simulator cross-check per
// scenario on the concurrent job runner, then walks the dense workload's
// node count across the 7-GTS-slot budget. Results are deterministic and
// identical at every worker count. ctx is threaded through the job runner
// into each scenario's NSGA-II generation loop — SIGINT in
// wsn-experiments stops the sweep within one generation.
func ScenarioSweepContext(ctx context.Context, cfg ScenarioSweepConfig) (*ScenarioSweepResult, error) {
	names := cfg.Names
	if names == nil {
		names = scenario.Names()
	}
	jobs := make([]Job, len(names))
	for i, name := range names {
		name := name
		jobs[i] = Job{Name: name, Run: func(ctx context.Context) (Report, error) {
			sc, ok := scenario.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("scenario %q not registered", name)
			}
			return evalScenario(ctx, sc, cfg.Workers)
		}}
	}
	res := &ScenarioSweepResult{}
	for _, out := range RunJobsContext(ctx, jobs, cfg.Workers) {
		if out.Err != nil {
			return nil, fmt.Errorf("scenario %s: %w", out.Name, out.Err)
		}
		res.Rows = append(res.Rows, out.Report.(*ScenarioRow))
	}

	for _, n := range sweepStarvationNodes {
		row, err := starveAt(n)
		if err != nil {
			return nil, err
		}
		res.Starvation = append(res.Starvation, row)
	}
	return res, nil
}

// evalScenario explores one scenario and cross-checks the balanced pick.
// The context cancels the search at generation boundaries.
func evalScenario(ctx context.Context, sc scenario.Scenario, workers int) (*ScenarioRow, error) {
	p, eval, err := compile(scenario.NewProblem(sc, casestudy.DefaultCalibration()))
	if err != nil {
		return nil, err
	}
	search, err := dse.Search{Algorithm: "nsga2", Seed: sweepSeed, Workers: workers,
		NSGA2: &dse.NSGA2Config{PopulationSize: sweepPopulation, Generations: sweepGenerations},
	}.Run(p.Space(), eval, dse.Options{Context: ctx})
	if err != nil {
		return nil, err
	}
	row := &ScenarioRow{
		Name:       sc.Name,
		Stress:     sc.Stress,
		SpaceSize:  p.Space().Size(),
		Genes:      len(p.Space().Params),
		Evaluated:  search.Evaluated,
		Infeasible: search.Infeasible,
		Front:      search.Front,
	}
	if len(search.Front) == 0 {
		return row, nil // Check reports it
	}
	row.Balanced = dse.BalancedPoint(search.Front)
	row.BalancedParams, err = p.Decode(row.Balanced.Config)
	if err != nil {
		return nil, err
	}
	row.ModelEnergy = units.Watts(row.Balanced.Objs[0])

	simCfg, err := p.SimConfig(row.BalancedParams, sc.SimDuration, sc.SimSeed)
	if err != nil {
		return nil, err
	}
	row.BlockArrivals = simCfg.Arrival == sim.ArrivalBlock
	for _, nc := range simCfg.Nodes {
		if nc.Arrival == sim.ArrivalBlock {
			row.BlockArrivals = true // a single bursty node breaks the Eq. 9 assumption too
		}
	}
	simRes, err := sim.Run(simCfg)
	if err != nil {
		return nil, err
	}
	powers := make([]float64, len(simRes.Nodes))
	for i, n := range simRes.Nodes {
		powers[i] = float64(n.Power.Total)
	}
	row.SimEnergy = units.Watts(core.Combine(powers, sc.Theta))
	row.ErrPct = numeric.RelErr(float64(row.ModelEnergy), float64(row.SimEnergy))
	row.Stable = simRes.Stable
	return row, nil
}

// starveAt samples the dense workload at one node count and counts the
// model-feasible share.
func starveAt(n int) (StarvationRow, error) {
	sc := scenario.DenseGTS(n)
	sc.Name = fmt.Sprintf("dense-gts-%d", n)
	p, eval, err := compile(scenario.NewProblem(sc, casestudy.DefaultCalibration()))
	if err != nil {
		return StarvationRow{}, err
	}
	rng := rand.New(rand.NewSource(sweepSeed + int64(n)))
	row := StarvationRow{Nodes: n, Sampled: sweepStarvationSamples}
	for i := 0; i < sweepStarvationSamples; i++ {
		if _, err := eval.Evaluate(p.Space().Random(rng)); err == nil {
			row.Feasible++
		}
	}
	return row, nil
}

// Render writes the sweep tables.
func (r *ScenarioSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Scenario sweep — one exploration + simulator cross-check per registered scenario\n")
	for _, row := range r.Rows {
		row.Render(w)
	}
	fmt.Fprintf(w, "\nGTS starvation sweep (dense workload, random sampling of the space):\n")
	fmt.Fprintf(w, "%-6s %-9s %s\n", "nodes", "sampled", "feasible")
	for _, s := range r.Starvation {
		fmt.Fprintf(w, "%-6d %-9d %.1f%%\n", s.Nodes, s.Sampled, s.FeasiblePct())
	}
}

// Check verifies every scenario row and the starvation cliff: workloads at
// or under the 7-GTS budget keep feasible configurations, workloads past
// it have none.
func (r *ScenarioSweepResult) Check() error {
	if len(r.Rows) == 0 {
		return fmt.Errorf("scenarios: nothing swept")
	}
	for _, row := range r.Rows {
		if err := row.Check(); err != nil {
			return err
		}
	}
	for _, s := range r.Starvation {
		switch {
		case s.Nodes <= 7 && s.Feasible == 0:
			return fmt.Errorf("scenarios: %d-node dense workload found no feasible configuration", s.Nodes)
		case s.Nodes > 7 && s.Feasible != 0:
			return fmt.Errorf("scenarios: %d-node workload cannot be feasible with 7 GTS slots, found %d",
				s.Nodes, s.Feasible)
		}
	}
	return nil
}

// WriteCSV emits every front point, each scenario's balanced pick, and the
// starvation sweep as one machine-readable table.
func (r *ScenarioSweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"scenario", "kind", "energy_w", "quality", "delay_s", "nodes", "feasible_pct"}); err != nil {
		return err
	}
	point := func(name, kind string, objs []float64) error {
		return cw.Write([]string{name, kind, f(objs[0]), f(objs[1]), f(objs[2]), "", ""})
	}
	for _, row := range r.Rows {
		for _, p := range row.Front {
			if err := point(row.Name, "front", p.Objs); err != nil {
				return err
			}
		}
		if len(row.Front) > 0 {
			if err := point(row.Name, "balanced", row.Balanced.Objs); err != nil {
				return err
			}
		}
	}
	for _, s := range r.Starvation {
		rec := []string{"dense-gts-sweep", "starvation", "", "", "",
			strconv.Itoa(s.Nodes), f(s.FeasiblePct())}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
