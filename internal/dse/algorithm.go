package dse

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Defaults a Search applies when Budget or MaxPoints is zero.
const (
	DefaultBudget    = 4096   // random-search draws
	DefaultMaxPoints = 200000 // largest space an exhaustive sweep enumerates
)

// Search names one run of an algorithm in the table below. Seed and
// Workers override those inside NSGA2/MOSA, Run ignores the fields its
// algorithm does not read, and zero values select the defaults. The JSON
// names are those of the service's job spec and the island protocol.
type Search struct {
	Algorithm string       `json:"algorithm"`
	Seed      int64        `json:"seed,omitempty"`
	Workers   int          `json:"workers,omitempty"`
	NSGA2     *NSGA2Config `json:"nsga2,omitempty"`
	MOSA      *MOSAConfig  `json:"mosa,omitempty"`
	Budget    int          `json:"budget,omitempty"`
	MaxPoints int          `json:"max_points,omitempty"`
}

// algorithm is one table entry. resume checks a resume snapshot against
// the configuration. front rebuilds the front a snapshot has found so
// far, in lexicographic order so that migrant selection is deterministic;
// inject folds accepted migrants into a snapshot copy. Both are nil for
// an algorithm that takes no injected points.
type algorithm struct {
	validate func(Search) error
	run      func(s Search, space *Space, eval Evaluator, opts Options) (*Result, error)
	steps    func(s Search, space *Space) int
	resume   func(s Search, space *Space, snap *Snapshot) error
	front    func(*Snapshot) []Point
	inject   func(out *Snapshot, accepted []SnapPoint) error
}

// algorithms is the table. It is filled in init because the resume
// paths its entries run look the table up again (ValidateResume).
var algorithms map[string]algorithm

func init() {
	algorithms = map[string]algorithm{
		"nsga2": {
			validate: func(s Search) error { return s.nsga2().Validate() },
			run: func(s Search, space *Space, eval Evaluator, opts Options) (*Result, error) {
				return NSGA2Opts(space, eval, s.nsga2(), opts)
			},
			// The gene count only sets the mutation default.
			steps: func(s Search, _ *Space) int { return s.nsga2().withDefaults(1).Generations },
			resume: func(s Search, _ *Space, snap *Snapshot) error {
				switch c := s.nsga2().withDefaults(1); {
				case len(snap.Population) != c.PopulationSize:
					return fmt.Errorf("dse: snapshot population %d does not match configured size %d", len(snap.Population), c.PopulationSize)
				case snap.Step > c.Generations:
					return fmt.Errorf("dse: snapshot at generation %d is past the configured %d", snap.Step, c.Generations)
				}
				return nil
			},
			front:  func(snap *Snapshot) []Point { return archivePoints(snap.Archive) },
			inject: injectPopulation,
		},
		"mosa": {
			validate: func(s Search) error { return s.mosa().Validate() },
			run: func(s Search, space *Space, eval Evaluator, opts Options) (*Result, error) {
				return MOSAOpts(space, eval, s.mosa(), opts)
			},
			steps: func(s Search, _ *Space) int { return s.mosa().withDefaults().segments() },
			resume: func(s Search, _ *Space, snap *Snapshot) error {
				switch c := s.mosa().withDefaults(); {
				case len(snap.Chains) != c.Restarts:
					return fmt.Errorf("dse: snapshot has %d chains, configuration wants %d", len(snap.Chains), c.Restarts)
				case snap.Step > c.segments():
					return fmt.Errorf("dse: snapshot at segment %d is past the configured %d (budget %d iterations over %d chains)",
						snap.Step, c.segments(), c.Iterations, c.Restarts)
				}
				return nil
			},
			front: func(snap *Snapshot) []Point {
				var arch Archive
				for _, ch := range snap.Chains {
					restoreArchive(&arch, ch.Archive)
				}
				return arch.Points()
			},
			inject: injectChains,
		},
		"exhaustive": {
			validate: func(Search) error { return nil },
			run: func(s Search, space *Space, eval Evaluator, opts Options) (*Result, error) {
				return ExhaustiveOpts(space, eval, cmp.Or(s.MaxPoints, DefaultMaxPoints), s.Workers, opts)
			},
			steps: func(s Search, space *Space) int {
				if size := space.Size(); size <= float64(cmp.Or(s.MaxPoints, DefaultMaxPoints)) {
					return batches(int(size))
				}
				return 0
			},
			resume: func(_ Search, space *Space, snap *Snapshot) error {
				if size := space.Size(); float64(snap.Next) > size {
					return fmt.Errorf("dse: snapshot consumed %d of %d points", snap.Next, int(size))
				}
				return nil
			},
		},
		"random": {
			validate: func(Search) error { return nil },
			run: func(s Search, space *Space, eval Evaluator, opts Options) (*Result, error) {
				return RandomSearchOpts(space, eval, cmp.Or(s.Budget, DefaultBudget), s.Seed, s.Workers, opts)
			},
			steps: func(s Search, _ *Space) int { return batches(cmp.Or(s.Budget, DefaultBudget)) },
			resume: func(s Search, _ *Space, snap *Snapshot) error {
				if budget := cmp.Or(s.Budget, DefaultBudget); snap.Next > budget {
					return fmt.Errorf("dse: snapshot consumed %d of %d draws", snap.Next, budget)
				}
				return nil
			},
		},
	}
}

// Algorithms lists the table's names in sorted order.
func Algorithms() []string { return slices.Sorted(maps.Keys(algorithms)) }

// lookup returns the table entry for name. An unknown name gets an entry
// that takes no injected points, has no steps, and fails validation,
// resume checks and runs with an error listing every name in the table.
func lookup(name string) algorithm {
	if a, ok := algorithms[name]; ok {
		return a
	}
	err := fmt.Errorf("dse: unknown algorithm %q (want %s)", name, strings.Join(Algorithms(), "|"))
	return algorithm{
		validate: func(Search) error { return err },
		run:      func(Search, *Space, Evaluator, Options) (*Result, error) { return nil, err },
		steps:    func(Search, *Space) int { return 0 },
		resume:   func(Search, *Space, *Snapshot) error { return err },
	}
}

// Validate rejects an unknown algorithm, an out-of-domain config for the
// named algorithm, and a negative Budget or MaxPoints.
func (s Search) Validate() error {
	if err := lookup(s.Algorithm).validate(s); err != nil {
		return err
	}
	if s.Budget < 0 {
		return fmt.Errorf("dse: negative random-search budget %d", s.Budget)
	}
	if s.MaxPoints < 0 {
		return fmt.Errorf("dse: negative exhaustive point limit %d", s.MaxPoints)
	}
	return nil
}

// Run runs the named algorithm over space under opts.
func (s Search) Run(space *Space, eval Evaluator, opts Options) (*Result, error) {
	return lookup(s.Algorithm).run(s, space, eval, opts)
}

// ValidateResume checks snap before a run of s over space resumes from
// it, objs being the evaluator's objective count (0 skips it): first
// Snapshot.Validate, then the algorithm's checks against the
// configuration. Every resume path runs it.
func (s Search) ValidateResume(snap *Snapshot, space *Space, objs int) error {
	if err := snap.Validate(s.Algorithm, space, objs); err != nil {
		return err
	}
	return lookup(s.Algorithm).resume(s, space, snap)
}

// Steps returns how many boundaries (generations, chain segments or
// evaluation batches) a run over space passes: 0 for an unknown algorithm
// or a space too large to enumerate.
func (s Search) Steps(space *Space) int {
	return lookup(s.Algorithm).steps(s, space)
}

// Injectable reports whether the algorithm takes injected points: only
// then can it be warm-started (Options.SeedPoints) or exchange island
// migrants (MigrantsOut, InjectMigrants).
func (s Search) Injectable() bool {
	return lookup(s.Algorithm).inject != nil
}

// nsga2 and mosa return the config the search runs, with its Seed and
// Workers.
func (s Search) nsga2() (c NSGA2Config) {
	if s.NSGA2 != nil {
		c = *s.NSGA2
	}
	c.Seed, c.Workers = s.Seed, s.Workers
	return c
}

func (s Search) mosa() (c MOSAConfig) {
	if s.MOSA != nil {
		c = *s.MOSA
	}
	c.Seed, c.Workers = s.Seed, s.Workers
	return c
}

// archivePoints restores each set of snapshot points into one Archive,
// in order, and returns its front.
func archivePoints(sets ...[]SnapPoint) []Point {
	var arch Archive
	for _, sps := range sets {
		restoreArchive(&arch, sps)
	}
	return arch.Points()
}
