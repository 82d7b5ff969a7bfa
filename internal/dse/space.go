// Package dse provides the multi-objective design-space exploration layer:
// discrete design spaces, Pareto machinery (dominance, fronts, crowding,
// hypervolume, coverage), and the search algorithms the paper plugs its
// model into — a genetic algorithm (NSGA-II), multi-objective simulated
// annealing (after Nam & Park [27]), plus exhaustive and random search as
// references.
//
// Everything is deterministic under a caller-provided seed, and evaluators
// signal constraint violations (infeasible configurations) so the
// algorithms can apply constrained dominance instead of aborting.
//
// # Batch-evaluation runtime
//
// Every search algorithm runs on ParallelEvaluator, a sharded memo cache
// that keeps each configuration's genes packed, one byte per gene, beside
// its objectives in flat arenas. Candidate configurations are produced
// sequentially from the algorithm's seeded RNG. NSGA-II, exhaustive and
// random search evaluate them on the run's evaluation pool: the search
// goroutine plus Workers − 1 goroutines that live as long as the run and
// park between jobs, so waking them costs no goroutine start. NSGA-II
// publishes each offspring as variation writes it, and a pool goroutine
// merges the offspring into the archive while the search goroutine ranks
// and selects. MOSA runs its chains on goroutines it starts for each
// chain segment. Results land in input order;
// each distinct configuration is evaluated exactly once no matter how
// many workers race for it, so Result.Evaluated keeps meaning distinct
// points. A panic on a worker goroutine is raised again on the search
// goroutine as a *WorkerPanic once every worker goroutine has stopped.
// EvaluateBatch, for callers outside a run, fans out over goroutines of
// its own per call. A returned point carries
// the caller's own configuration slice, so each search owns its gene
// buffers and recycles them, and an Archive copies the genes of every
// point it keeps; a Result's front is copied out of the archive and the
// objective arena.
//
// # Determinism guarantees
//
// Evaluators must be pure functions of the configuration. Under that
// assumption, fronts and the Evaluated/Infeasible counts are bit-identical
// at every worker count (workers = 1 is the sequential path): NSGA-II
// derives each offspring population from the parent generation alone and
// archives it in offspring order, MOSA gives each chain a seed mixed from
// (Seed, chain index) and a private guiding archive and merges the chain
// archives in chain order, and exhaustive/random search archive their
// batches in enumeration/draw order. Archive merging is additionally
// order-independent at the objective level: the set of non-dominated
// objective vectors does not depend on insertion order.
//
// # Run options: cancellation, progress, checkpoint/resume
//
// One algorithm table (algorithm.go) holds nsga2, mosa, exhaustive and
// random. A Search names its entry and carries every setting of the run;
// Search.Run, the one way to run a search, validates it and calls the
// entry's runner. All four runners share one harness (run.go): each
// supplies only how to advance to its next boundary — a generation
// (NSGA-II), a chain segment (MOSA) or an evaluation batch
// (exhaustive/random, the last partial one included) — its live front
// and its snapshot fields. The harness does the rest: resume checks, memo
// priming, cumulative counts, and the Options hooks, which run at every
// boundary from the resume step + 1 through the run's total and never
// inside the allocation-free hot loops, so a sink never changes a front.
// Cancellation returns the partial Result alongside ctx.Err(); StatsSink,
// the sink searches feed, receives step counters, memo-cache hits and the
// live front (valid during the call); CheckpointFunc receives
// self-contained, JSON-serializable Snapshots. The search RNG draws from
// a SplitMix64 rand.Source64 so its complete state is a single uint64,
// which is what makes a resumed run (Options.Resume) replay the
// uninterrupted trajectory bit for bit.
package dse

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Parameter is one discrete design knob: a name and its admissible values.
// Values carry float64 payloads; evaluators interpret them (they may be
// indices, frequencies, ratios...).
type Parameter struct {
	Name   string
	Values []float64
}

// Space is a cartesian product of parameters.
type Space struct {
	Params []Parameter
}

// Validate checks that every parameter has at least one value.
func (s *Space) Validate() error {
	if len(s.Params) == 0 {
		return fmt.Errorf("dse: empty design space")
	}
	for i, p := range s.Params {
		if len(p.Values) == 0 {
			return fmt.Errorf("dse: parameter %d (%s) has no values", i, p.Name)
		}
	}
	return nil
}

// Size returns the number of points in the space as a float64 (spaces
// routinely exceed int ranges; the case study's has ~10¹¹ points).
func (s *Space) Size() float64 {
	size := 1.0
	for _, p := range s.Params {
		size *= float64(len(p.Values))
	}
	return size
}

// Config is one design point: an index into each parameter's value list.
type Config []int

// Clone copies the configuration.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// geneBuffers returns n configurations of the given length whose genes
// share one slab; each is capped at its own length.
func geneBuffers(n, genes int) []Config {
	slab := make([]int, n*genes)
	out := make([]Config, n)
	for i := range out {
		out[i] = slab[i*genes : (i+1)*genes : (i+1)*genes]
	}
	return out
}

// Key returns a compact map key for memoization in string-keyed containers:
// each gene in full as a varint, so distinct configurations, of any length
// and with any gene values, get distinct keys. The batch runtime's memo
// cache uses the allocation-free Hash/Equal pair instead; Key remains for
// callers that want a set of configurations.
func (c Config) Key() string {
	b := make([]byte, 0, len(c)*2)
	for _, v := range c {
		b = binary.AppendVarint(b, int64(v))
	}
	return string(b)
}

// Hash packs the gene indices into a 64-bit FNV-1a hash without
// allocating — the memo-cache key of the batch runtime. Distinct
// configurations may collide (the space can exceed 2⁶⁴ points); collisions
// are resolved by Equal, never by trusting the hash alone.
func (c Config) Hash() uint64 {
	h := uint64(14695981039346656037)
	for _, v := range c {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// Equal reports gene-wise equality.
func (c Config) Equal(d Config) bool {
	if len(c) != len(d) {
		return false
	}
	for i, v := range c {
		if v != d[i] {
			return false
		}
	}
	return true
}

// Value resolves parameter i of the configuration.
func (s *Space) Value(c Config, i int) float64 {
	return s.Params[i].Values[c[i]]
}

// Valid reports whether c indexes the space correctly.
func (s *Space) Valid(c Config) bool {
	if len(c) != len(s.Params) {
		return false
	}
	for i, v := range c {
		if v < 0 || v >= len(s.Params[i].Values) {
			return false
		}
	}
	return true
}

// Random draws a uniform configuration.
func (s *Space) Random(rng *rand.Rand) Config {
	c := make(Config, len(s.Params))
	s.RandomInto(rng, c)
	return c
}

// RandomInto draws a uniform configuration into dst (length = parameter
// count) — the allocation-free form the search generation loops run on.
// The rng draw sequence is identical to Random's.
func (s *Space) RandomInto(rng *rand.Rand, dst Config) {
	for i := range dst {
		dst[i] = rng.Intn(len(s.Params[i].Values))
	}
}

// MutateInPlace flips each gene of c with the given probability to a
// uniformly chosen value.
func (s *Space) MutateInPlace(rng *rand.Rand, c Config, perGeneProb float64) {
	for i := range c {
		if rng.Float64() < perGeneProb {
			c[i] = rng.Intn(len(s.Params[i].Values))
		}
	}
}

// NeighborInto writes a neighbour of src into dst (equal lengths, dst
// must not alias src's backing array if src must survive): exactly one
// randomly chosen gene moves by ±1, wrapping at the ends, the canonical
// simulated-annealing move on a discrete grid.
func (s *Space) NeighborInto(rng *rand.Rand, dst, src Config) {
	copy(dst, src)
	i := rng.Intn(len(dst))
	n := len(s.Params[i].Values)
	if n == 1 {
		return
	}
	if rng.Intn(2) == 0 {
		dst[i] = (dst[i] + 1) % n
	} else {
		dst[i] = (dst[i] - 1 + n) % n
	}
}

// CrossoverInto performs uniform crossover between two parents into dst
// (all equal lengths).
func (s *Space) CrossoverInto(rng *rand.Rand, dst, a, b Config) {
	for i := range dst {
		if rng.Intn(2) == 0 {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
}

// Iterate enumerates the whole space in lexicographic order, the last
// gene fastest, stopping when fn returns false. Only sensible for small
// (test-sized) spaces.
func (s *Space) Iterate(fn func(Config) bool) {
	c := make(Config, len(s.Params))
	for fn(c) && s.advance(c) {
	}
}

// advance steps c to the next configuration in Iterate's order (an
// odometer increment) and reports false once c was the last one, leaving
// it wrapped to all zeros.
func (s *Space) advance(c Config) bool {
	for i := len(c) - 1; i >= 0; i-- {
		if c[i]++; c[i] < len(s.Params[i].Values) {
			return true
		}
		c[i] = 0
	}
	return false
}
