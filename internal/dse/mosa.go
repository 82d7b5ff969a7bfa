package dse

import (
	"fmt"
	"math"
	"math/rand"
)

// MOSAConfig parameterizes multi-objective simulated annealing. Zero
// values select the documented defaults; out-of-domain values (negative
// budgets or temperatures, a budget smaller than the chain count) are
// rejected by MOSA with a descriptive error rather than silently
// degenerating into zero-length chains. Seed may be any value — every
// seed defines a valid deterministic run.
type MOSAConfig struct {
	Iterations  int     `json:"iterations,omitempty"`   // total across all chains; default 5000
	InitialTemp float64 `json:"initial_temp,omitempty"` // default 1.0
	Cooling     float64 `json:"cooling,omitempty"`      // geometric factor per iteration; default 0.999
	Restarts    int     `json:"restarts,omitempty"`     // independent chains; default 4
	Seed        int64   `json:"seed,omitempty"`
	// Workers bounds how many chains anneal concurrently; <= 0 selects
	// GOMAXPROCS. Each chain owns a seed derived deterministically from
	// (Seed, chain index) and a private guiding archive, so results are
	// bit-identical at any worker count; the per-chain archives merge
	// into the returned front in chain order.
	Workers int `json:"workers,omitempty"`
}

// validate rejects out-of-domain values before defaulting.
func (c MOSAConfig) validate() error {
	if c.Iterations < 0 {
		return fmt.Errorf("dse: MOSA iteration budget %d is negative (use 0 for the default)", c.Iterations)
	}
	if c.Restarts < 0 {
		return fmt.Errorf("dse: MOSA restart count %d is negative (use 0 for the default)", c.Restarts)
	}
	if c.InitialTemp < 0 {
		return fmt.Errorf("dse: MOSA initial temperature %g is negative (use 0 for the default)", c.InitialTemp)
	}
	return nil
}

// Validate is the exported domain check, for callers (the exploration
// service) that want to reject a bad configuration before committing a
// worker to it. It accepts everything MOSA itself accepts: zero values
// select defaults, explicit values must be in domain.
func (c MOSAConfig) Validate() error {
	if err := c.validate(); err != nil {
		return err
	}
	if c.Cooling != 0 && (c.Cooling <= 0 || c.Cooling >= 1) {
		return fmt.Errorf("dse: cooling factor %g must be in (0,1)", c.Cooling)
	}
	d := c.withDefaults()
	if d.Iterations < d.Restarts {
		return fmt.Errorf("dse: MOSA budget of %d iterations gives the %d chains zero length",
			d.Iterations, d.Restarts)
	}
	return nil
}

func (c MOSAConfig) withDefaults() MOSAConfig {
	if c.Iterations == 0 {
		c.Iterations = 5000
	}
	if c.InitialTemp == 0 {
		c.InitialTemp = 1.0
	}
	if c.Cooling == 0 {
		c.Cooling = 0.999
	}
	if c.Restarts == 0 {
		c.Restarts = 4
	}
	return c
}

// chainSeed derives chain ch's RNG seed from the run seed with a
// SplitMix64-style mix, so chains draw decorrelated streams and the
// derivation is independent of execution order.
func chainSeed(seed int64, ch int) int64 {
	z := uint64(seed) + (uint64(ch)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// mosaSegment is the chain-boundary granularity: every chain advances this
// many iterations between synchronization points, where Options hooks
// (progress, checkpoint, cancellation) run. Results are independent of the
// segmentation — chains are deterministic walks whose state carries across
// segments — so the constant trades hook latency against barrier overhead.
const mosaSegment = 256

// MOSA runs archive-based multi-objective simulated annealing in the
// spirit of Nam & Park [27]: a random walk over single-gene neighbours
// whose acceptance energy is the fraction of the chain's archive that
// dominates the candidate, so the chain is always pulled toward (and
// along) the front. The independent chains run concurrently on the worker
// pool, share the memo cache (a configuration visited by two chains is
// evaluated once), and their archives merge deterministically at the end.
//
// The paper reports that the model-driven DSE found fronts of equivalent
// quality with genetic algorithms and simulated annealing (§5.2); MOSA is
// here so that claim can be checked.
func MOSA(space *Space, eval Evaluator, cfg MOSAConfig) (*Result, error) {
	return MOSAOpts(space, eval, cfg, Options{})
}

// MOSAOpts is MOSA under run Options. The chains advance in lock-stepped
// segments of mosaSegment iterations; between segments — never inside a
// chain's allocation-free iteration loop — the run emits progress, writes
// due checkpoints and honors cancellation. On cancellation the partial
// Result (the merge of every chain's archive so far) is returned together
// with ctx.Err().
func MOSAOpts(space *Space, eval Evaluator, cfg MOSAConfig, opts Options) (*Result, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Cooling <= 0 || cfg.Cooling >= 1 {
		return nil, fmt.Errorf("dse: cooling factor %g must be in (0,1)", cfg.Cooling)
	}
	if cfg.Iterations < cfg.Restarts {
		return nil, fmt.Errorf("dse: MOSA budget of %d iterations gives the %d chains zero length",
			cfg.Iterations, cfg.Restarts)
	}
	pe := NewParallelEvaluator(eval, cfg.Workers)

	perChain := cfg.Iterations / cfg.Restarts
	segments := (perChain + mosaSegment - 1) / mosaSegment
	chains := make([]*mosaChain, cfg.Restarts)
	startSeg := 0
	var baseEval, baseInf int
	if opts.Resume != nil {
		if err := restoreChains(opts.Resume, space, cfg, pe, chains); err != nil {
			return nil, err
		}
		if opts.Resume.Step > segments {
			return nil, fmt.Errorf("dse: snapshot at segment %d is past the configured %d (budget %d iterations over %d chains)",
				opts.Resume.Step, segments, cfg.Iterations, cfg.Restarts)
		}
		startSeg = opts.Resume.Step
		baseEval, baseInf = opts.Resume.Evaluated, opts.Resume.Infeasible
	} else {
		seeds := opts.validSeeds(space, cfg.Restarts)
		for ch := range chains {
			chains[ch] = newMOSAChain(space, cfg, ch)
			if ch < len(seeds) {
				chains[ch].start = seeds[ch].Clone()
			}
		}
	}

	// merged rebuilds the union of the chain archives in one Archive
	// reused across boundaries; each call overwrites the previous front.
	var front Archive
	merged := func() []Point {
		front.points = front.points[:0]
		for _, c := range chains {
			front.AddBatch(c.arch.Points())
		}
		return front.Points()
	}
	result := func() *Result {
		evaluated, infeasible := pe.Stats()
		return &Result{Front: merged(), Evaluated: baseEval + evaluated, Infeasible: baseInf + infeasible}
	}
	for seg := startSeg; seg < segments; seg++ {
		upTo := (seg + 1) * mosaSegment
		if upTo > perChain {
			upTo = perChain
		}
		ForEachWorker(cfg.Restarts, pe.Workers(), func(w, ch int) {
			chains[ch].run(space, pe, w, upTo)
		})
		evaluated, infeasible := pe.Stats()
		err := opts.boundary("mosa", seg+1, segments, baseEval+evaluated, baseInf+infeasible,
			pe, merged,
			func() *Snapshot { return snapChains(seg+1, chains, baseEval+evaluated, baseInf+infeasible) })
		if err != nil {
			return result(), err
		}
	}
	return result(), nil
}

// mosaChain is one independent annealing chain: a private RNG, the current
// point and its energy, the temperature, the guiding archive, and a single
// gene buffer for candidate moves. The memo cache clones configurations it
// keeps, so a steady-state iteration (cache hit, archive unchanged)
// performs zero heap allocations.
type mosaChain struct {
	rng     *rand.Rand
	src     *splitMix64
	cfg     MOSAConfig
	buf     Config
	start   Config // warm-start point; nil draws the start uniformly
	cur     Point
	curE    float64
	temp    float64
	iter    int // iterations completed
	started bool
	arch    Archive
}

func newMOSAChain(space *Space, cfg MOSAConfig, ch int) *mosaChain {
	c := &mosaChain{cfg: cfg, buf: make(Config, len(space.Params)), temp: cfg.InitialTemp}
	c.rng, c.src = newSearchRand(chainSeed(cfg.Seed, ch))
	return c
}

// energy is the acceptance energy of a candidate: the fraction of the
// chain's archive that dominates it (2 for infeasible points, worse than
// any feasible energy).
func (c *mosaChain) energy(p Point) float64 {
	if !p.Feasible {
		return 2
	}
	if c.arch.Len() == 0 {
		return 0
	}
	dominated := 0
	for _, q := range c.arch.Points() {
		if Dominates(q.Objs, p.Objs) {
			dominated++
		}
	}
	return float64(dominated) / float64(c.arch.Len())
}

// run advances the chain until upTo iterations are complete, evaluating on
// worker w's private evaluator instance. The first call draws and
// evaluates the chain's starting point; state carries across calls, so
// segmented execution walks the identical trajectory an unsegmented run
// would.
func (c *mosaChain) run(space *Space, pe *ParallelEvaluator, w, upTo int) {
	if !c.started {
		if c.start != nil {
			copy(c.buf, c.start)
		} else {
			space.RandomInto(c.rng, c.buf)
		}
		c.cur = pe.evalFor(w, c.buf)
		c.arch.Add(c.cur)
		c.curE = c.energy(c.cur)
		c.started = true
	}
	for ; c.iter < upTo; c.iter++ {
		space.NeighborInto(c.rng, c.buf, c.cur.Config)
		cand := pe.evalFor(w, c.buf)
		c.arch.Add(cand)
		candE := c.energy(cand)
		if candE <= c.curE || c.rng.Float64() < math.Exp(-(candE-c.curE)/c.temp) {
			c.cur, c.curE = cand, candE
		}
		c.temp *= c.cfg.Cooling
	}
}

// snapChains captures every chain's state at a segment boundary.
func snapChains(step int, chains []*mosaChain, evaluated, infeasible int) *Snapshot {
	snap := &Snapshot{
		Version:    SnapshotVersion,
		Algorithm:  "mosa",
		Step:       step,
		Chains:     make([]ChainSnap, len(chains)),
		Evaluated:  evaluated,
		Infeasible: infeasible,
	}
	for i, c := range chains {
		snap.Chains[i] = ChainSnap{
			RNG:     c.src.state,
			Cur:     snapPoint(c.cur),
			CurE:    c.curE,
			Temp:    c.temp,
			Iter:    c.iter,
			Archive: snapPoints(c.arch.Points()),
		}
	}
	return snap
}

// restoreChains rebuilds the chains from a snapshot and primes the memo
// cache with every archived point.
func restoreChains(snap *Snapshot, space *Space, cfg MOSAConfig, pe *ParallelEvaluator, chains []*mosaChain) error {
	if err := snap.validateResume("mosa", space, pe.NumObjectives()); err != nil {
		return err
	}
	if len(snap.Chains) != len(chains) {
		return fmt.Errorf("dse: snapshot has %d chains, configuration wants %d", len(snap.Chains), len(chains))
	}
	for i := range chains {
		cs := snap.Chains[i]
		c := newMOSAChain(space, cfg, i)
		c.src.state = cs.RNG
		c.cur = cs.Cur.point()
		c.curE = cs.CurE
		c.temp = cs.Temp
		c.iter = cs.Iter
		c.started = true
		restoreArchive(&c.arch, cs.Archive)
		pe.prime(c.cur)
		for _, p := range c.arch.Points() {
			pe.prime(p)
		}
		chains[i] = c
	}
	return nil
}
