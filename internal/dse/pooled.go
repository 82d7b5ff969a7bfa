package dse

import "sync"

// EvalInto is the hot-path surface of one single-goroutine evaluation
// context: write c's objectives into objs (length NumObjectives). Compiled
// problems expose their evaluation contexts through it.
type EvalInto func(c Config, objs Objectives) error

// NewPooledForkable lifts a factory of single-goroutine evaluation
// contexts into a concurrency-safe Evaluator. The result implements
// IntoEvaluator (scratch-objective evaluation) and Forkable (a private
// context per batch-runtime worker); ad-hoc concurrent callers are served
// from a sync.Pool of contexts, so steady-state evaluation stays
// allocation-free on every path. It is the concurrency front of the
// scenario package's compiled pipeline.
func NewPooledForkable(numObjectives int, fresh func() EvalInto) Evaluator {
	return &pooledForkable{nobj: numObjectives, fresh: fresh}
}

type pooledForkable struct {
	nobj  int
	fresh func() EvalInto
	pool  sync.Pool
}

// NumObjectives returns the configured objective count.
func (p *pooledForkable) NumObjectives() int { return p.nobj }

func (p *pooledForkable) get() EvalInto {
	if f, ok := p.pool.Get().(EvalInto); ok {
		return f
	}
	return p.fresh()
}

// Evaluate implements Evaluator; safe for concurrent use.
func (p *pooledForkable) Evaluate(c Config) (Objectives, error) {
	f := p.get()
	defer p.pool.Put(f)
	return evalIntoObjs(f, c, p.nobj)
}

// EvaluateInto implements IntoEvaluator; safe for concurrent use.
func (p *pooledForkable) EvaluateInto(c Config, objs Objectives) error {
	f := p.get()
	defer p.pool.Put(f)
	return f(c, objs)
}

// Fork implements Forkable: a private context for one worker.
func (p *pooledForkable) Fork() Evaluator {
	return &forkedInto{nobj: p.nobj, fn: p.fresh()}
}

// forkedInto adapts one private evaluation context to the Evaluator
// interfaces. Not safe for concurrent use, by design.
type forkedInto struct {
	nobj int
	fn   EvalInto
}

// NumObjectives returns the configured objective count.
func (f *forkedInto) NumObjectives() int { return f.nobj }

// Evaluate implements Evaluator.
func (f *forkedInto) Evaluate(c Config) (Objectives, error) {
	return evalIntoObjs(f.fn, c, f.nobj)
}

// EvaluateInto implements IntoEvaluator.
func (f *forkedInto) EvaluateInto(c Config, objs Objectives) error { return f.fn(c, objs) }

// evalIntoObjs adapts the scratch API to the allocating Evaluate form.
func evalIntoObjs(f EvalInto, c Config, nobj int) (Objectives, error) {
	objs := make(Objectives, nobj)
	if err := f(c, objs); err != nil {
		return nil, err
	}
	return objs, nil
}
