package experiments

import (
	"fmt"
	"math/rand"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/numeric"
	"wsndse/internal/scenario"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

// ThetaAblationConfig parameterizes the balance-weight ablation.
type ThetaAblationConfig struct {
	Cal            *casestudy.Calibration
	Thetas         []float64
	PopulationSize int
	Generations    int
	Seed           int64
	// Workers bounds the evaluation pool of the per-ϑ searches; <= 0
	// selects GOMAXPROCS. Fronts are identical at any worker count.
	Workers int
}

func (c ThetaAblationConfig) withDefaults() ThetaAblationConfig {
	if c.Cal == nil {
		c.Cal = casestudy.DefaultCalibration()
	}
	if c.Thetas == nil {
		c.Thetas = []float64{0, 0.5, 1.5}
	}
	if c.PopulationSize == 0 {
		c.PopulationSize = 48
	}
	if c.Generations == 0 {
		c.Generations = 25
	}
	if c.Seed == 0 {
		c.Seed = 23
	}
	return c
}

// ThetaAblationRow is one ϑ setting's outcome.
type ThetaAblationRow struct {
	Theta float64
	// MeanImbalance is the average, over the Pareto front, of the
	// per-configuration coefficient of variation of node energies
	// (stddev/mean). Eq. 8's dispersion term exists to push this down.
	MeanImbalance float64
	FrontSize     int
}

// ThetaAblationResult aggregates the sweep.
type ThetaAblationResult struct {
	Rows []ThetaAblationRow
}

// ThetaAblation checks the design rationale of Eq. 8: raising ϑ steers the
// DSE toward configurations whose nodes drain evenly. It runs the same
// NSGA-II budget at several ϑ and measures the energy imbalance of the
// resulting fronts.
func ThetaAblation(cfg ThetaAblationConfig) (*ThetaAblationResult, error) {
	cfg = cfg.withDefaults()
	res := &ThetaAblationResult{}
	for _, theta := range cfg.Thetas {
		sc := scenario.ECGWard()
		sc.Theta = theta
		problem, eval, err := wardProblem(sc, cfg.Cal)
		if err != nil {
			return nil, err
		}
		search, err := dse.NSGA2(problem.Space(), eval, dse.NSGA2Config{
			PopulationSize: cfg.PopulationSize,
			Generations:    cfg.Generations,
			Seed:           cfg.Seed,
			Workers:        cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		var imbalances []float64
		for _, p := range search.Front {
			params, err := problem.Decode(p.Config)
			if err != nil {
				return nil, err
			}
			net, err := problem.Network(params)
			if err != nil {
				return nil, err
			}
			ev, err := net.Evaluate()
			if err != nil {
				continue
			}
			energies := make([]float64, len(ev.PerNode))
			for i, eb := range ev.PerNode {
				energies[i] = float64(eb.Total)
			}
			mean := numeric.Mean(energies)
			if mean > 0 {
				imbalances = append(imbalances, numeric.SampleStdDev(energies)/mean)
			}
		}
		res.Rows = append(res.Rows, ThetaAblationRow{
			Theta:         theta,
			MeanImbalance: numeric.Mean(imbalances),
			FrontSize:     len(search.Front),
		})
	}
	return res, nil
}

// Render writes the sweep.
func (r *ThetaAblationResult) Render(w writer) {
	fmt.Fprintf(w, "Ablation — balance weight ϑ of the Eq. 8 metrics\n")
	fmt.Fprintf(w, "%-6s %14s %10s\n", "ϑ", "imbalance", "front")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-6.2f %13.2f%% %10d\n", row.Theta, row.MeanImbalance*100, row.FrontSize)
	}
	fmt.Fprintf(w, "(imbalance: mean stddev/mean of per-node energies across the front)\n")
}

// Check verifies the rationale: the highest-ϑ front is more balanced than
// the ϑ = 0 front.
func (r *ThetaAblationResult) Check() error {
	if len(r.Rows) < 2 {
		return fmt.Errorf("theta ablation: need at least two settings")
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.MeanImbalance >= first.MeanImbalance {
		return fmt.Errorf("theta ablation: imbalance did not drop (ϑ=%g: %.3f vs ϑ=%g: %.3f)",
			first.Theta, first.MeanImbalance, last.Theta, last.MeanImbalance)
	}
	return nil
}

// ArrivalAblationConfig parameterizes the Eq. 9 assumption ablation.
type ArrivalAblationConfig struct {
	Cal         *casestudy.Calibration
	Runs        int
	SimDuration units.Seconds
	Seed        int64
}

func (c ArrivalAblationConfig) withDefaults() ArrivalAblationConfig {
	if c.Cal == nil {
		c.Cal = casestudy.DefaultCalibration()
	}
	if c.Runs == 0 {
		c.Runs = 20
	}
	if c.SimDuration == 0 {
		c.SimDuration = 30
	}
	if c.Seed == 0 {
		c.Seed = 31
	}
	return c
}

// ArrivalAblationResult compares the delay bound's validity under the two
// traffic models.
type ArrivalAblationResult struct {
	RunsUsed int
	// Uniform arrivals: the regime where the paper formulates Eq. 9.
	UniformViolations int
	UniformMaxDelay   units.Seconds
	// Block arrivals: whole compressed blocks released at once.
	BlockViolations int
	BlockMaxDelay   units.Seconds
}

// ArrivalAblation demonstrates why the paper's delay model leans on the
// "uniform output rate" property of the compressors (§4.2): the identical
// bound that holds under uniform arrivals is violated when blocks arrive
// as bursts.
func ArrivalAblation(cfg ArrivalAblationConfig) (*ArrivalAblationResult, error) {
	cfg = cfg.withDefaults()
	problem, eval, err := wardProblem(scenario.ECGWard(), cfg.Cal)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &ArrivalAblationResult{}

	for run := 0; run < cfg.Runs; run++ {
		_, params, err := drawFeasible(problem, eval, rng)
		if err != nil {
			return nil, err
		}
		net, err := problem.Network(params)
		if err != nil {
			return nil, err
		}
		ev, err := net.Evaluate()
		if err != nil {
			return nil, err
		}
		for _, arrival := range []sim.ArrivalModel{sim.ArrivalUniform, sim.ArrivalBlock} {
			simCfg, err := problem.SimConfig(params, cfg.SimDuration, cfg.Seed+int64(run))
			if err != nil {
				return nil, err
			}
			simCfg.Arrival = arrival
			simRes, err := runSim(simCfg)
			if err != nil {
				return nil, err
			}
			for i, n := range simRes.Nodes {
				if n.Delay.Count == 0 {
					continue
				}
				bound := units.Seconds(ev.PerNodeDelay[i])
				switch arrival {
				case sim.ArrivalUniform:
					if n.Delay.Max > bound {
						res.UniformViolations++
					}
					if n.Delay.Max > res.UniformMaxDelay {
						res.UniformMaxDelay = n.Delay.Max
					}
				case sim.ArrivalBlock:
					if n.Delay.Max > bound {
						res.BlockViolations++
					}
					if n.Delay.Max > res.BlockMaxDelay {
						res.BlockMaxDelay = n.Delay.Max
					}
				}
			}
		}
		res.RunsUsed++
	}
	return res, nil
}

// Render writes the comparison.
func (r *ArrivalAblationResult) Render(w writer) {
	fmt.Fprintf(w, "Ablation — the uniform-output-rate assumption behind Eq. 9\n")
	fmt.Fprintf(w, "configurations: %d\n", r.RunsUsed)
	fmt.Fprintf(w, "uniform arrivals: %d bound violations, worst delay %v\n",
		r.UniformViolations, r.UniformMaxDelay)
	fmt.Fprintf(w, "block arrivals:   %d bound violations, worst delay %v\n",
		r.BlockViolations, r.BlockMaxDelay)
	fmt.Fprintf(w, "(the bound presumes the compressors stream at a uniform rate; bursty\n")
	fmt.Fprintf(w, " block releases overflow per-superframe capacity and break it)\n")
}

// Check verifies the ablation's point: the bound holds under uniform
// arrivals and breaks under block arrivals.
func (r *ArrivalAblationResult) Check() error {
	if r.UniformViolations != 0 {
		return fmt.Errorf("arrival ablation: %d violations under uniform arrivals", r.UniformViolations)
	}
	if r.BlockViolations == 0 {
		return fmt.Errorf("arrival ablation: expected violations under block arrivals")
	}
	if r.BlockMaxDelay <= r.UniformMaxDelay {
		return fmt.Errorf("arrival ablation: block arrivals should worsen the worst delay")
	}
	return nil
}
