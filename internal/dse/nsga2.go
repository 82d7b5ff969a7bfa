package dse

import (
	"fmt"
	"math/rand"
	"slices"
)

// NSGA2Config parameterizes the genetic algorithm. Zero values select the
// documented defaults; out-of-domain values (negative sizes, probabilities
// outside [0,1]) are rejected by Search.Validate with a descriptive error
// rather than silently degenerating the search.
type NSGA2Config struct {
	PopulationSize int     `json:"population_size,omitempty"` // default 64; must be even and ≥ 4
	Generations    int     `json:"generations,omitempty"`     // default 50
	CrossoverProb  float64 `json:"crossover_prob,omitempty"`  // default 0.9
	MutationProb   float64 `json:"mutation_prob,omitempty"`   // per gene; default 1/len(genes)
	// Deprecated: only NSGA2Opts reads Seed; set Search.Seed.
	Seed int64 `json:"seed,omitempty"`
	// Deprecated: only NSGA2Opts reads Workers; set Search.Workers.
	Workers int `json:"workers,omitempty"`
}

// Validate rejects out-of-domain values; Search.Validate runs it for an
// nsga2 search. Zero values select defaults, and an explicit population
// size must be even and ≥ 4.
func (c NSGA2Config) Validate() error {
	if c.PopulationSize < 0 {
		return fmt.Errorf("dse: NSGA-II population size %d is negative (use 0 for the default)", c.PopulationSize)
	}
	if c.Generations < 0 {
		return fmt.Errorf("dse: NSGA-II generation count %d is negative (use 0 for the default)", c.Generations)
	}
	if c.CrossoverProb < 0 || c.CrossoverProb > 1 {
		return fmt.Errorf("dse: NSGA-II crossover probability %g out of [0,1]", c.CrossoverProb)
	}
	if c.MutationProb < 0 || c.MutationProb > 1 {
		return fmt.Errorf("dse: NSGA-II mutation probability %g out of [0,1]", c.MutationProb)
	}
	if c.PopulationSize != 0 && (c.PopulationSize < 4 || c.PopulationSize%2 != 0) {
		return fmt.Errorf("dse: population size %d must be even and ≥ 4", c.PopulationSize)
	}
	return nil
}

func (c NSGA2Config) withDefaults(genes int) NSGA2Config {
	if c.PopulationSize == 0 {
		c.PopulationSize = 64
	}
	if c.Generations == 0 {
		c.Generations = 50
	}
	if c.CrossoverProb == 0 {
		c.CrossoverProb = 0.9
	}
	if c.MutationProb == 0 {
		c.MutationProb = 1 / float64(genes)
	}
	return c
}

// runNSGA2 runs the elitist non-dominated-sorting genetic algorithm of
// Deb et al. — the "genetic algorithms (which have already been used in
// the WSN domain)" the paper drives with its model (§5.2). The returned
// front is the non-dominated set over every point evaluated during the
// run (in lexicographic objective order), not merely the final
// population.
//
// Each generation's offspring population is produced sequentially from the
// RNG seeded with s.Seed (tournament selection only reads the parent
// generation, so no offspring depends on a sibling's evaluation). With
// s.Workers > 1 the run's evaluation pool evaluates each child as soon as
// variation has written it, and merges the offspring into the archive
// while the search goroutine ranks and selects. The generation loop runs
// on pre-sized, pooled buffers — gene scratch, the parent∪offspring union,
// the fast non-dominated sort's workspace — so steady-state generations
// are allocation-free: after the memo cache saturates, a generation
// performs zero heap allocations at any worker count
// (TestNSGA2GenerationSteadyStateZeroAllocs pins this). Options hook in
// at generation boundaries only; on cancellation the partial Result — the
// front over everything evaluated so far — is returned together with
// ctx.Err().
func runNSGA2(s Search, space *Space, eval Evaluator, opts Options) (*Result, error) {
	cfg := s.nsga2().withDefaults(len(space.Params))
	rs, err := begin(s, space, eval, opts)
	if err != nil {
		return nil, err
	}
	defer rs.pool.stop()
	rng, src := newSearchRand(s.Seed)
	var arch Archive
	r := newNSGA2Run(space, rs, cfg, &arch)
	if opts.Resume != nil {
		r.restore(opts.Resume, src)
	} else {
		// Seeds fill at most half the initial population: transferred
		// fronts are often as large as the population itself, and letting
		// them displace every random individual kills the exploration that
		// finds regions the donor never reached.
		r.seed(rng, opts.validSeeds(space, (cfg.PopulationSize+1)/2))
	}
	return rs.loop(func(int) { r.generation(rng) }, arch.Points,
		func(snap *Snapshot) { r.fill(snap, src) })
}

// NSGA2Opts runs an nsga2 Search whose Seed and Workers are cfg's.
//
// Deprecated: build a Search and call Search.Run.
func NSGA2Opts(space *Space, eval Evaluator, cfg NSGA2Config, opts Options) (*Result, error) {
	s := Search{Algorithm: "nsga2", Seed: cfg.Seed, Workers: cfg.Workers, NSGA2: &cfg}
	cfg.Seed, cfg.Workers = 0, 0
	return s.Run(space, eval, opts)
}

// fill adds the run's state at a generation boundary to snap: the
// survivors with their carried union ranking, the archive, and the RNG
// state. Everything is deep-copied — the run keeps recycling its buffers
// after the call.
func (r *nsga2Run) fill(snap *Snapshot, src *splitMix64) {
	n := r.cfg.PopulationSize
	snap.RNG = src.state
	snap.Population = snapPoints(r.pop)
	snap.Ranks = append([]int(nil), r.ranks[:n]...)
	snap.Crowd = append(InfFloats(nil), r.crowd[:n]...)
	snap.Archive = snapPoints(r.arch.Points())
}

// restore rebuilds the run from a validated snapshot: population,
// carried ranking, archive and RNG state come back bit-exactly, and the
// snapshot's points prime the memo cache so re-visited configurations are
// cache hits rather than re-evaluations.
func (r *nsga2Run) restore(snap *Snapshot, src *splitMix64) {
	r.pop = append(r.pop[:0], restorePoints(snap.Population)...)
	copy(r.ranks, snap.Ranks)
	copy(r.crowd, snap.Crowd)
	for _, p := range r.pop {
		r.rs.pe.prime(p)
	}
	r.orderPop()
	r.rs.restore(r.arch, snap.Archive)
	src.state = snap.RNG
}

// nsga2Run owns every buffer of the generation loop, pre-sized so the
// steady state allocates nothing: gene buffers for the population and one
// offspring batch, the parent∪offspring union, rank/crowding arrays for
// the survivors and the fast sort's workspace. Each population point
// carries a gene buffer of the run's own (the batch runtime hands back the
// caller's slices), and after selection the buffers of the discarded half
// of the union become the next offspring's, so no gene is copied per
// generation.
type nsga2Run struct {
	space *Space
	rs    *runState
	cfg   NSGA2Config
	arch  *Archive
	merge func() // adds the offspring to arch; a pool job's tail

	pop       []Point   // current population
	ranks     []int     // pop's ranks, carried from the union ranking
	crowd     []float64 // pop's crowding, carried from the union ranking
	popOrder  []int     // pop's feasible indices in lexicographic order
	children  []Config  // gene buffers of the next offspring
	offspring []Point   // offspring evaluation results
	offOrder  []int     // offspring's feasible union indices, lex-sorted
	union     []Point   // pop ∪ offspring
	kept      []int     // union index → survivor position, −1 if discarded
	ws        sortWorkspace
}

func newNSGA2Run(space *Space, rs *runState, cfg NSGA2Config, arch *Archive) *nsga2Run {
	n := cfg.PopulationSize
	r := &nsga2Run{
		space:     space,
		rs:        rs,
		cfg:       cfg,
		arch:      arch,
		pop:       make([]Point, 0, n),
		ranks:     make([]int, n),
		crowd:     make([]float64, n),
		popOrder:  make([]int, 0, n),
		children:  geneBuffers(n, len(space.Params)),
		offspring: make([]Point, n),
		offOrder:  make([]int, 0, n),
		union:     make([]Point, 0, 2*n),
		kept:      make([]int, 2*n),
	}
	r.merge = func() { r.arch.AddBatch(r.offspring) }
	return r
}

// seed builds and evaluates the initial population and ranks it for the
// first generation's tournaments. seeds (already validated and deduped,
// at most half of PopulationSize) fill the leading slots; the remainder
// is drawn uniformly. Seeded slots consume no RNG draws, so the unseeded
// tail — and with an empty seed list the whole run — matches the plain
// entry point draw for draw. The population keeps the buffers it was
// evaluated from, and the first offspring get buffers of their own.
func (r *nsga2Run) seed(rng *rand.Rand, seeds []Config) {
	for i, s := range seeds {
		copy(r.children[i], s)
	}
	for i := len(seeds); i < len(r.children); i++ {
		r.space.RandomInto(rng, r.children[i])
	}
	r.pop = r.rs.evaluate(r.children, r.pop)
	r.children = geneBuffers(len(r.children), len(r.space.Params))
	r.arch.AddBatch(r.pop)
	ranks, crowd := r.ws.rankAndCrowd(r.pop)
	copy(r.ranks, ranks)
	copy(r.crowd, crowd)
	r.orderPop()
}

// orderPop sorts the population's feasible indices into popOrder: for a
// seeded or restored population, which no selection has ordered.
func (r *nsga2Run) orderPop() {
	r.ws.lexOrder(r.pop)
	r.popOrder = append(r.popOrder[:0], r.ws.order...)
}

// generation advances the population by one NSGA-II step: binary
// tournaments pick parents, uniform crossover plus per-gene mutation
// produce offspring, and environmental selection keeps the best
// PopulationSize points of parents ∪ offspring by (rank, crowding). The
// union is ranked exactly once; the survivors carry their union rank and
// crowding into the next generation's tournaments, as in Deb's original
// formulation. The discarded union members hand their gene buffers to
// the next generation's offspring.
//
// The generation is one job on the run's pool: each child is published
// as soon as variation has written it, and the offspring's archive merge
// is the job's tail, which a pool goroutine runs while this one selects.
// The job is closed — the merge done — before the generation returns, so
// the boundary hooks read a whole archive, and the next variation may
// overwrite the genes of the discarded offspring the merge copies.
func (r *nsga2Run) generation(rng *rand.Rand) {
	n := r.cfg.PopulationSize
	pool := &r.rs.pool
	r.rs.in, r.rs.out = r.children, r.offspring
	pool.open(n, r.rs.evalItem, r.merge)
	for i := 0; i < n; i++ {
		a := tournament(rng, r.pop, r.ranks, r.crowd)
		b := tournament(rng, r.pop, r.ranks, r.crowd)
		child := r.children[i]
		if rng.Float64() < r.cfg.CrossoverProb {
			r.space.CrossoverInto(rng, child, r.pop[a].Config, r.pop[b].Config)
		} else {
			copy(child, r.pop[a].Config)
		}
		r.space.MutateInPlace(rng, child, r.cfg.MutationProb)
		pool.publish(i + 1)
	}
	pool.finish()
	r.selectSurvivors()
	pool.close()
}

// selectSurvivors is elitist environmental selection over parents ∪
// offspring, reusing the union's ranking for the survivors. Fronts are
// taken whole in rank order until the one that does not fit, the split
// front, and each front taken is ordered by crowding descending, then
// union index, so the survivors are the union's first PopulationSize
// points in (rank, crowding desc, index) order — the order tournaments
// index into. Only the fronts selection takes are crowded. The discarded
// members' gene buffers become the next offspring's.
func (r *nsga2Run) selectSurvivors() {
	n := r.cfg.PopulationSize
	r.union = append(append(r.union[:0], r.pop...), r.offspring...)
	r.unionOrder()
	uRanks, uCrowd := r.ws.rankLex(r.union, n)
	byCrowd := func(a, b int) int {
		if uCrowd[a] != uCrowd[b] {
			if uCrowd[a] > uCrowd[b] {
				return -1
			}
			return 1
		}
		return a - b
	}
	r.pop = r.pop[:n]
	kept, spare := 0, 0
	for _, members := range r.ws.fronts[:r.ws.nf] {
		if kept < n {
			slices.SortFunc(members, byCrowd)
			take := members[:min(len(members), n-kept)]
			for _, i := range take {
				r.pop[kept], r.ranks[kept], r.crowd[kept] = r.union[i], uRanks[i], uCrowd[i]
				r.kept[i] = kept
				kept++
			}
			members = members[len(take):]
		}
		for _, i := range members {
			r.children[spare] = r.union[i].Config
			r.kept[i] = -1
			spare++
		}
	}
	r.carryOrder()
}

// unionOrder puts the union's feasible indices into ws.order as lexOrder
// would, sorting only the offspring: the population's order is carried
// over from the last selection, and the two are merged, the population
// first among equal vectors, since its indices are the lower ones.
func (r *nsga2Run) unionOrder() {
	n := len(r.pop)
	off := r.offOrder[:0]
	for i := range r.offspring {
		if r.offspring[i].Feasible {
			off = append(off, n+i)
		}
	}
	sortLex(r.union, off)
	r.offOrder = off
	out, pop := r.ws.order[:0], r.popOrder
	for len(pop) > 0 && len(off) > 0 {
		if lexLessObjs(r.union[off[0]].Objs, r.union[pop[0]].Objs) {
			out, off = append(out, off[0]), off[1:]
		} else {
			out, pop = append(out, pop[0]), pop[1:]
		}
	}
	r.ws.order = append(append(out, pop...), off...)
}

// carryOrder sets popOrder to the survivors' lexicographic order, read
// off the union's: survivors keep their relative order there, except that
// a run of equal objective vectors goes back to ascending index.
func (r *nsga2Run) carryOrder() {
	order := r.popOrder[:0]
	for _, u := range r.ws.order {
		if p := r.kept[u]; p >= 0 {
			order = append(order, p)
		}
	}
	for k := 1; k < len(order); k++ {
		for j := k; j > 0 && order[j-1] > order[j] && equalObjs(r.pop[order[j-1]].Objs, r.pop[order[j]].Objs); j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	r.popOrder = order
}

// tournament returns the index of the binary-tournament winner: lower rank
// wins, ties broken by larger crowding distance. Exact (rank, crowding)
// ties flip a coin from the run's seeded rng — the old `crowd[a] >=
// crowd[b]` rule always handed ties to the first draw, a systematic
// selection bias toward earlier tournament positions. Runs stay
// deterministic per seed; the coin is only drawn on exact ties.
func tournament(rng *rand.Rand, pop []Point, ranks []int, crowd []float64) int {
	a, b := rng.Intn(len(pop)), rng.Intn(len(pop))
	switch {
	case ranks[a] < ranks[b]:
		return a
	case ranks[b] < ranks[a]:
		return b
	case crowd[a] > crowd[b]:
		return a
	case crowd[b] > crowd[a]:
		return b
	}
	if rng.Intn(2) == 0 {
		return a
	}
	return b
}
