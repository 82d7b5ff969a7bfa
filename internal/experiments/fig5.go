package experiments

import (
	"fmt"

	"wsndse/internal/baseline"
	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
)

// Fig5Config parameterizes the tradeoff-detection experiment (§5.2,
// Figure 5): DSE with the proposed three-metric model against DSE with a
// state-of-the-art energy/delay model.
type Fig5Config struct {
	Cal *casestudy.Calibration

	// Search budget, shared by both sides.
	PopulationSize int
	Generations    int
	Seed           int64

	// RunMOSA additionally runs simulated annealing with the full model
	// to check the paper's GA-vs-SA equivalence observation.
	RunMOSA bool

	// Workers bounds the evaluation pool of the inner searches; <= 0
	// selects GOMAXPROCS. Fronts are identical at any worker count.
	Workers int
}

func (c Fig5Config) withDefaults() Fig5Config {
	if c.Cal == nil {
		c.Cal = casestudy.DefaultCalibration()
	}
	if c.PopulationSize == 0 {
		c.PopulationSize = 96
	}
	if c.Generations == 0 {
		c.Generations = 60
	}
	if c.Seed == 0 {
		c.Seed = 17
	}
	return c
}

// Fig5Result carries both fronts in the common three-objective space
// (energy [W], PRD [%], delay [s]) plus the headline coverage number.
type Fig5Result struct {
	// FullFront is the Pareto set found with the proposed model.
	FullFront []dse.Point
	// BaselineFront is the energy/delay model's Pareto set, lifted into
	// the three-objective space for comparison.
	BaselineFront []dse.Point

	// SizeRatio is |baseline front| / |full front| — the paper's
	// headline: "the Pareto set generated according to the energy/delay
	// model only contains a subset (approximately 7%) of the tradeoffs
	// that are found using the proposed model".
	SizeRatio float64

	// BaselineShare is the fraction of the full front weakly dominated
	// by a baseline point — a stricter containment measure.
	BaselineShare float64

	// FullCoversBaseline is C(full, baseline): how much of the baseline
	// front the full model's front dominates or matches. Reported for
	// context only — the two searches walk a huge space independently,
	// so their extreme points rarely coincide exactly.
	FullCoversBaseline float64

	EvalsFull, EvalsBaseline int

	// MOSA cross-check (populated when RunMOSA): hypervolume of the GA
	// and SA fronts over the energy/delay projection.
	MOSAFront []dse.Point
	HVFullGA  float64
	HVFullSA  float64
}

// Fig5 runs both searches and compares the detected tradeoffs.
func Fig5(cfg Fig5Config) (*Fig5Result, error) {
	cfg = cfg.withDefaults()
	problem, eval, err := wardProblem(scenario.ECGWard(), cfg.Cal)
	if err != nil {
		return nil, err
	}

	full, err := dse.NSGA2(problem.Space(), eval, dse.NSGA2Config{
		PopulationSize: cfg.PopulationSize,
		Generations:    cfg.Generations,
		Seed:           cfg.Seed,
		Workers:        cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	base, err := dse.NSGA2(problem.Space(), baseline.Project(eval, 0, 2), dse.NSGA2Config{
		PopulationSize: cfg.PopulationSize,
		Generations:    cfg.Generations,
		Seed:           cfg.Seed,
		Workers:        cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	lifted, err := baseline.Lift(eval, base.Front)
	if err != nil {
		return nil, err
	}

	res := &Fig5Result{
		FullFront:     full.Front,
		BaselineFront: lifted,
		EvalsFull:     full.Evaluated,
		EvalsBaseline: base.Evaluated,
	}
	if len(full.Front) > 0 {
		res.SizeRatio = float64(len(lifted)) / float64(len(full.Front))
	}
	res.BaselineShare = dse.Coverage(lifted, full.Front)
	res.FullCoversBaseline = dse.Coverage(full.Front, lifted)

	if cfg.RunMOSA {
		sa, err := dse.MOSA(problem.Space(), eval, dse.MOSAConfig{
			Iterations: cfg.PopulationSize * cfg.Generations,
			Seed:       cfg.Seed,
			Workers:    cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		res.MOSAFront = sa.Front
		ref := referencePoint(append(append([]dse.Point{}, full.Front...), sa.Front...))
		res.HVFullGA = dse.Hypervolume(full.Front, ref)
		res.HVFullSA = dse.Hypervolume(sa.Front, ref)
	}
	return res, nil
}

// referencePoint returns a point 10 % beyond the worst value of each
// objective across the union of fronts.
func referencePoint(points []dse.Point) dse.Objectives {
	if len(points) == 0 {
		return nil
	}
	m := len(points[0].Objs)
	ref := make(dse.Objectives, m)
	for i := range ref {
		worst := points[0].Objs[i]
		for _, p := range points {
			if p.Objs[i] > worst {
				worst = p.Objs[i]
			}
		}
		ref[i] = worst * 1.1
	}
	return ref
}

// Projection names for rendering.
var projections = []struct {
	name string
	x, y int
}{
	{"energy-delay", 0, 2},
	{"energy-PRD", 0, 1},
	{"PRD-delay", 1, 2},
}

// Render writes the comparison summary and the three tradeoff projections
// the paper plots.
func (r *Fig5Result) Render(w writer) {
	fmt.Fprintf(w, "Figure 5 — tradeoffs detected: proposed 3-metric model vs energy/delay model\n")
	fmt.Fprintf(w, "full-model front:    %d points (%d evaluations)\n", len(r.FullFront), r.EvalsFull)
	fmt.Fprintf(w, "baseline front:      %d points (%d evaluations)\n", len(r.BaselineFront), r.EvalsBaseline)
	fmt.Fprintf(w, "baseline tradeoffs vs full model's: %.1f%%   (paper: ≈7%%)\n", r.SizeRatio*100)
	fmt.Fprintf(w, "full-front points dominated by baseline: %.1f%%\n", r.BaselineShare*100)
	fmt.Fprintf(w, "baseline-front points dominated by full: %.1f%%\n", r.FullCoversBaseline*100)
	if r.MOSAFront != nil {
		fmt.Fprintf(w, "GA vs SA hypervolume: %.4g vs %.4g (paper: no relevant difference)\n",
			r.HVFullGA, r.HVFullSA)
	}
	for _, proj := range projections {
		fmt.Fprintf(w, "\n%s tradeoff (full model front, then baseline):\n", proj.name)
		for _, p := range r.FullFront {
			fmt.Fprintf(w, "  F %.6g %.6g\n", p.Objs[proj.x], p.Objs[proj.y])
		}
		for _, p := range r.BaselineFront {
			fmt.Fprintf(w, "  B %.6g %.6g\n", p.Objs[proj.x], p.Objs[proj.y])
		}
	}
}

// Check verifies the structural claim: the baseline finds only a small
// fraction of the full tradeoff set, while the full model subsumes most of
// the baseline's.
func (r *Fig5Result) Check() error {
	if len(r.FullFront) == 0 || len(r.BaselineFront) == 0 {
		return fmt.Errorf("fig5: empty front")
	}
	if len(r.FullFront) <= 2*len(r.BaselineFront) {
		return fmt.Errorf("fig5: full front (%d) should far exceed the baseline's (%d)",
			len(r.FullFront), len(r.BaselineFront))
	}
	if r.BaselineShare > 0.25 {
		return fmt.Errorf("fig5: baseline covers %.1f%% of the full front, expected a small fraction",
			r.BaselineShare*100)
	}
	if r.SizeRatio <= 0 || r.SizeRatio > 0.35 {
		return fmt.Errorf("fig5: baseline front is %.1f%% the size of the full front, expected a small fraction",
			r.SizeRatio*100)
	}
	return nil
}
