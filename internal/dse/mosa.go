package dse

import (
	"fmt"
	"math"
	"math/rand"
)

// MOSAConfig parameterizes multi-objective simulated annealing. Zero
// values select the documented defaults; out-of-domain values (negative
// budgets or temperatures, a budget smaller than the chain count) are
// rejected by Search.Validate with a descriptive error rather than
// silently degenerating into zero-length chains.
type MOSAConfig struct {
	Iterations  int     `json:"iterations,omitempty"`   // total across all chains; default 5000
	InitialTemp float64 `json:"initial_temp,omitempty"` // default 1.0
	Cooling     float64 `json:"cooling,omitempty"`      // geometric factor per iteration; default 0.999
	Restarts    int     `json:"restarts,omitempty"`     // independent chains; default 4
	// Deprecated: only MOSAOpts reads Seed; set Search.Seed.
	Seed int64 `json:"seed,omitempty"`
	// Deprecated: only MOSAOpts reads Workers; set Search.Workers.
	Workers int `json:"workers,omitempty"`
}

// Validate rejects out-of-domain values; Search.Validate runs it for a
// mosa search. Zero values select defaults, explicit values must be in
// domain.
func (c MOSAConfig) Validate() error {
	if c.Iterations < 0 {
		return fmt.Errorf("dse: MOSA iteration budget %d is negative (use 0 for the default)", c.Iterations)
	}
	if c.Restarts < 0 {
		return fmt.Errorf("dse: MOSA restart count %d is negative (use 0 for the default)", c.Restarts)
	}
	if c.InitialTemp < 0 {
		return fmt.Errorf("dse: MOSA initial temperature %g is negative (use 0 for the default)", c.InitialTemp)
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

// segments returns how many chain segments a defaulted config runs.
func (c MOSAConfig) segments() int {
	perChain := c.Iterations / c.Restarts
	if perChain <= 0 {
		return 0
	}
	return (perChain + mosaSegment - 1) / mosaSegment
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

// runMOSA runs archive-based multi-objective simulated annealing in the
// spirit of Nam & Park [27]: a random walk over single-gene neighbours
// whose acceptance energy is the fraction of the chain's archive that
// dominates the candidate, so the chain is always pulled toward (and
// along) the front. The independent chains, each seeded from (s.Seed,
// chain index), run concurrently on the run's evaluation pool of
// s.Workers goroutines, share the memo cache (a configuration visited by
// two chains is evaluated once), and their archives merge
// deterministically in chain order.
//
// The paper reports that the model-driven DSE found fronts of equivalent
// quality with genetic algorithms and simulated annealing (§5.2); MOSA is
// here so that claim can be checked.
//
// The chains advance in lock-stepped segments of mosaSegment iterations;
// between segments — never inside a chain's allocation-free iteration
// loop — the run emits stats, writes due checkpoints and honors
// cancellation. On cancellation the partial Result (the merge of every
// chain's archive so far) is returned together with ctx.Err().
func runMOSA(s Search, space *Space, eval Evaluator, opts Options) (*Result, error) {
	cfg := s.mosa().withDefaults()
	rs, err := begin(s, space, eval, opts)
	if err != nil {
		return nil, err
	}
	defer rs.pool.stop()
	chains := make([]*mosaChain, cfg.Restarts)
	if opts.Resume != nil {
		// Restore every chain and prime the memo cache with its points.
		for i, cs := range opts.Resume.Chains {
			c := newMOSAChain(space, cfg, chainSeed(s.Seed, i))
			c.src.state, c.cur, c.curE = cs.RNG, cs.Cur.clone(), cs.CurE
			c.temp, c.iter, c.started = cs.Temp, cs.Iter, true
			rs.pe.prime(c.cur)
			rs.restore(&c.arch, cs.Archive)
			chains[i] = c
		}
	} else {
		seeds := opts.validSeeds(space, cfg.Restarts)
		for ch := range chains {
			chains[ch] = newMOSAChain(space, cfg, chainSeed(s.Seed, ch))
			if ch < len(seeds) {
				chains[ch].start = seeds[ch].Clone()
			}
		}
	}

	// merged rebuilds the union of the chain archives in one Archive
	// reused across boundaries; each call overwrites the previous front.
	var front Archive
	merged := func() []Point {
		front.reset()
		for _, c := range chains {
			front.AddBatch(c.arch.Points())
		}
		return front.Points()
	}
	return rs.loop(mosaStep(rs, space, chains, cfg.Iterations/cfg.Restarts), merged,
		func(snap *Snapshot) { snap.Chains = snapChains(chains) })
}

// mosaStep returns the run's step: segment seg advances every chain to
// min(seg·mosaSegment, perChain) iterations, one chain per item of a job
// on the run's pool. The chain function is bound here once, so a segment
// allocates nothing.
func mosaStep(rs *runState, space *Space, chains []*mosaChain, perChain int) func(seg int) {
	upTo := 0
	runChain := func(w, ch int) { chains[ch].run(space, rs.pe, w, upTo) }
	return func(seg int) {
		upTo = min(seg*mosaSegment, perChain)
		rs.pool.run(len(chains), runChain)
	}
}

// MOSAOpts runs a mosa Search whose Seed and Workers are cfg's.
//
// Deprecated: build a Search and call Search.Run.
func MOSAOpts(space *Space, eval Evaluator, cfg MOSAConfig, opts Options) (*Result, error) {
	s := Search{Algorithm: "mosa", Seed: cfg.Seed, Workers: cfg.Workers, MOSA: &cfg}
	cfg.Seed, cfg.Workers = 0, 0
	return s.Run(space, eval, opts)
}

// mosaChain is one independent annealing chain: a private RNG, the current
// point and its energy, the temperature, the guiding archive, and two gene
// buffers, the current point's and the candidate's, which trade places
// when a candidate is accepted. The archive copies the genes it keeps, so
// a steady-state iteration (cache hit, archive unchanged) performs zero
// heap allocations.
type mosaChain struct {
	rng     *rand.Rand
	src     *splitMix64
	cfg     MOSAConfig
	buf     Config // the candidate's genes; cur.Config holds the current point's
	start   Config // warm-start point; nil draws the start uniformly
	cur     Point
	curE    float64
	temp    float64
	iter    int // iterations completed
	started bool
	arch    Archive
}

func newMOSAChain(space *Space, cfg MOSAConfig, seed int64) *mosaChain {
	c := &mosaChain{cfg: cfg, buf: make(Config, len(space.Params)), temp: cfg.InitialTemp}
	c.rng, c.src = newSearchRand(seed)
	return c
}

// energy adds p to the chain's archive and returns its acceptance energy:
// the fraction of the archive that dominates it (2 for infeasible points,
// worse than any feasible energy). One archive pass finds both; see
// Archive.addCounting.
func (c *mosaChain) energy(p Point) float64 {
	if !p.Feasible {
		return 2
	}
	dominated := c.arch.addCounting(p)
	if dominated == 0 {
		return 0
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
		c.buf = make(Config, len(c.buf))
		c.curE = c.energy(c.cur)
		c.started = true
	}
	for ; c.iter < upTo; c.iter++ {
		space.NeighborInto(c.rng, c.buf, c.cur.Config)
		cand := pe.evalFor(w, c.buf)
		candE := c.energy(cand)
		if candE <= c.curE || c.rng.Float64() < math.Exp(-(candE-c.curE)/c.temp) {
			c.buf, c.cur, c.curE = c.cur.Config, cand, candE
		}
		c.temp *= c.cfg.Cooling
	}
}

// snapChains captures every chain's state at a segment boundary.
func snapChains(chains []*mosaChain) []ChainSnap {
	out := make([]ChainSnap, len(chains))
	for i, c := range chains {
		out[i] = ChainSnap{
			RNG:     c.src.state,
			Cur:     c.cur.clone(),
			CurE:    c.curE,
			Temp:    c.temp,
			Iter:    c.iter,
			Archive: clonePoints(c.arch.Points()),
		}
	}
	return out
}
