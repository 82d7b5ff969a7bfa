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

// Search names one run of an algorithm in the table below and carries
// every setting of the run. Run ignores the fields its algorithm does
// not read, and zero values select the defaults. The JSON names are
// those of the service's job spec and the island protocol.
type Search struct {
	Algorithm string `json:"algorithm"`
	// Seed fixes the run's trajectory; every seed is a valid run.
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds the run's evaluation pool: the search goroutine plus
	// Workers − 1 goroutines (<= 0 selects GOMAXPROCS, 1 starts none).
	// NSGA-II evaluates each child on it as variation writes it, and
	// merges the offspring into the archive there while the search
	// goroutine ranks and selects; MOSA anneals up to Workers chains at
	// once. Fronts and counts are bit-identical at any worker count.
	Workers int `json:"workers,omitempty"`
	// NSGA2 and MOSA configure those algorithms; Validate refuses a Seed
	// or Workers inside them.
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
			run:      runNSGA2,
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
			run:      runMOSA,
			steps:    func(s Search, _ *Space) int { return s.mosa().withDefaults().segments() },
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
			run:      runExhaustive,
			steps: func(s Search, space *Space) int {
				if size := space.Size(); size <= float64(cmp.Or(s.MaxPoints, DefaultMaxPoints)) {
					return batches(int(size))
				}
				return 0
			},
			resume: func(s Search, space *Space, snap *Snapshot) error {
				return onBatch(snap, s.Steps(space), space.Size(), "points")
			},
		},
		"random": {
			validate: func(Search) error { return nil },
			run:      runRandom,
			steps:    func(s Search, _ *Space) int { return batches(cmp.Or(s.Budget, DefaultBudget)) },
			resume: func(s Search, space *Space, snap *Snapshot) error {
				return onBatch(snap, s.Steps(space), float64(cmp.Or(s.Budget, DefaultBudget)), "draws")
			},
		},
	}
}

// onBatch checks that an exhaustive or random snapshot sits on one of
// the run's boundaries, since a resumed run counts its boundaries from
// the snapshot's Step: the step at most the run's steps, and the cursor
// at min(step × exhaustiveBatch, n), n being the space size or the
// budget. n stays a float64, so an oversize space never converts to int.
func onBatch(snap *Snapshot, steps int, n float64, unit string) error {
	if snap.Step > steps || float64(snap.Next) != min(float64(snap.Step)*exhaustiveBatch, n) {
		return fmt.Errorf("dse: snapshot at batch %d of %d consumed %d of %.0f %s, not a batch boundary",
			snap.Step, steps, snap.Next, n, unit)
	}
	return nil
}

// Algorithms lists the table's names in sorted order.
func Algorithms() []string { return slices.Sorted(maps.Keys(algorithms)) }

// lookup returns the table entry for name. An unknown name gets an entry
// that takes no injected points, has no steps and no run (Run validates
// first), and fails validation and resume checks with an error listing
// every name in the table.
func lookup(name string) algorithm {
	if a, ok := algorithms[name]; ok {
		return a
	}
	err := fmt.Errorf("dse: unknown algorithm %q (want %s)", name, strings.Join(Algorithms(), "|"))
	return algorithm{
		validate: func(Search) error { return err },
		steps:    func(Search, *Space) int { return 0 },
		resume:   func(Search, *Space, *Snapshot) error { return err },
	}
}

// Validate rejects an unknown algorithm, an out-of-domain config for the
// named algorithm, a seed or worker count inside NSGA2 or MOSA, and a
// negative Budget or MaxPoints.
func (s Search) Validate() error {
	if err := lookup(s.Algorithm).validate(s); err != nil {
		return err
	}
	// A run reads the Search's own seed and workers, so a nested one
	// would be silently ignored.
	n, m := s.nsga2(), s.mosa()
	for _, f := range []struct {
		name  string
		value int64
	}{
		{"nsga2.seed", n.Seed}, {"nsga2.workers", int64(n.Workers)},
		{"mosa.seed", m.Seed}, {"mosa.workers", int64(m.Workers)},
	} {
		if f.value != 0 {
			return fmt.Errorf("dse: %s = %d is never read; set it on the search instead", f.name, f.value)
		}
	}
	if s.Budget < 0 {
		return fmt.Errorf("dse: negative random-search budget %d", s.Budget)
	}
	if s.MaxPoints < 0 {
		return fmt.Errorf("dse: negative exhaustive point limit %d", s.MaxPoints)
	}
	return nil
}

// Run validates s and runs the named algorithm over space under opts.
func (s Search) Run(space *Space, eval Evaluator, opts Options) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
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

// nsga2 and mosa return the config the search runs; nil selects the
// defaults.
func (s Search) nsga2() (c NSGA2Config) {
	if s.NSGA2 != nil {
		c = *s.NSGA2
	}
	return c
}

func (s Search) mosa() (c MOSAConfig) {
	if s.MOSA != nil {
		c = *s.MOSA
	}
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
