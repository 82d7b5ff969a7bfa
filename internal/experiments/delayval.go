package experiments

import (
	"fmt"
	"math/rand"

	"wsndse/internal/casestudy"
	"wsndse/internal/numeric"
	"wsndse/internal/scenario"
	"wsndse/internal/units"
)

// DelayValConfig parameterizes the Eq. 9 validation (§5.1: 130 simulations
// with realistic φ_out's and χ_mac's).
type DelayValConfig struct {
	Cal         *casestudy.Calibration
	Runs        int // feasible configurations to simulate (default 130)
	SimDuration units.Seconds
	Seed        int64
}

func (c DelayValConfig) withDefaults() DelayValConfig {
	if c.Cal == nil {
		c.Cal = casestudy.DefaultCalibration()
	}
	if c.Runs == 0 {
		c.Runs = 130
	}
	if c.SimDuration == 0 {
		c.SimDuration = 30
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// DelaySample is one (node, configuration) comparison.
type DelaySample struct {
	Run      int
	Node     int
	Bound    units.Seconds // Eq. 9 worst-case estimate
	Measured units.Seconds // maximum packet delay in the simulation
	Over     units.Seconds // Bound − Measured
}

// DelayValResult aggregates the validation.
type DelayValResult struct {
	Samples  []DelaySample
	RunsUsed int
	// MeanOver is the average overestimation; the paper reports it
	// below 100 ms. Violations counts samples whose bound fell short.
	MeanOver   units.Seconds
	MaxOver    units.Seconds
	MinOver    units.Seconds
	Violations int
	// Unstable counts simulated configurations whose queues grew; they
	// are excluded from the statistics (the bound presumes Eq. 1
	// holds, which the assignment guarantees, so this should be zero).
	Unstable int
}

// DelayVal draws random feasible case-study configurations, computes the
// Eq. 9 bound for every node, simulates the network packet-by-packet, and
// compares the bound against the largest measured delay.
func DelayVal(cfg DelayValConfig) (*DelayValResult, error) {
	cfg = cfg.withDefaults()
	problem, eval, err := wardProblem(scenario.ECGWard(), cfg.Cal)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &DelayValResult{}

	var overs []float64
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
		simCfg, err := problem.SimConfig(params, cfg.SimDuration, cfg.Seed+int64(run))
		if err != nil {
			return nil, err
		}
		simRes, err := runSim(simCfg)
		if err != nil {
			return nil, err
		}
		if !simRes.Stable {
			res.Unstable++
			continue
		}
		res.RunsUsed++
		for i, n := range simRes.Nodes {
			if n.Delay.Count == 0 {
				continue
			}
			s := DelaySample{
				Run:      run,
				Node:     i,
				Bound:    units.Seconds(ev.PerNodeDelay[i]),
				Measured: n.Delay.Max,
			}
			s.Over = s.Bound - s.Measured
			if s.Over < 0 {
				res.Violations++
			}
			overs = append(overs, float64(s.Over))
			res.Samples = append(res.Samples, s)
		}
	}
	if len(overs) > 0 {
		res.MeanOver = units.Seconds(numeric.Mean(overs))
		min, max := numeric.MinMax(overs)
		res.MinOver = units.Seconds(min)
		res.MaxOver = units.Seconds(max)
	}
	return res, nil
}

// Render writes the validation summary.
func (r *DelayValResult) Render(w writer) {
	fmt.Fprintf(w, "Delay validation — Eq. 9 worst-case bound vs packet-level simulation\n")
	fmt.Fprintf(w, "configurations simulated: %d (unstable excluded: %d)\n", r.RunsUsed, r.Unstable)
	fmt.Fprintf(w, "samples (node × config):  %d\n", len(r.Samples))
	fmt.Fprintf(w, "overestimation: mean %v, min %v, max %v\n", r.MeanOver, r.MinOver, r.MaxOver)
	fmt.Fprintf(w, "bound violations: %d\n", r.Violations)
	fmt.Fprintf(w, "paper: average overestimation < 100 ms over 130 simulations, bound holds\n")
}

// Check verifies the §5.1 claims: the bound dominates the measurements and
// the average overestimation stays below 100 ms.
func (r *DelayValResult) Check() error {
	if len(r.Samples) == 0 {
		return fmt.Errorf("delayval: no samples")
	}
	if r.Violations > 0 {
		return fmt.Errorf("delayval: %d bound violations", r.Violations)
	}
	if float64(r.MeanOver) >= 0.1 {
		return fmt.Errorf("delayval: mean overestimation %v not below 100 ms", r.MeanOver)
	}
	return nil
}
