package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/experiments"
	"wsndse/internal/scenario"
	"wsndse/internal/scenario/family"
	"wsndse/internal/service"
	"wsndse/internal/units"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer's public API. A folded span stands for Count calls
// (model evaluations within one search step) and covers Busy ns of its
// interval: the union of those calls, which overlap across workers.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

// covered is the time a span accounts for inside its parent.
func (s span) covered() int64 {
	if s.Count > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func (l *spanLog) ns(t time.Time) int64 { return int64(t.Sub(l.base)) }

// add records a span and returns its ID, the parent handle of its children.
func (l *spanLog) add(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

func (l *spanLog) addAt(name string, job, parent int, start, end time.Time) int {
	return l.add(span{Name: name, Job: job, Parent: parent, Start: l.ns(start), End: l.ns(end)})
}

// selfTimes maps each span ID to its self time: its duration minus the
// part its direct children cover. Children of one span never overlap (a
// job's calls are sequential, and so are a search's steps).
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.covered()
		}
	}
	return self
}

// evalLog is one evaluator instance's record: a start/end pair per call,
// in call order, plus a capped capture of the configurations and results
// for the replays.
type evalLog struct {
	iv    []int64
	cfgs  []dse.Config
	pts   []dse.Point
	steps []int32
}

// evalRecorder wraps one job's compiled evaluator in the traced direct
// rung. It counts search steps (advanced from the Stats sink, between
// batches) so captured configurations can be replayed step by step.
type evalRecorder struct {
	base      time.Time
	mu        sync.Mutex
	logs      []*evalLog
	root      *evalLog
	step      atomic.Int32
	capturing atomic.Bool
	budget    atomic.Int64
}

func newEvalRecorder(base time.Time, budget int64) *evalRecorder {
	r := &evalRecorder{base: base, root: &evalLog{}}
	r.logs = append(r.logs, r.root)
	r.budget.Store(budget)
	r.capturing.Store(budget > 0)
	return r
}

func (r *evalRecorder) wrap(inner dse.Evaluator) dse.Evaluator {
	return &recordingEval{inner: inner.(dse.IntoEvaluator), rec: r}
}

// recordingEval forwards NumObjectives, EvaluateInto and Fork to the
// compiled evaluator, recording every call. Forwarding Fork matters: a
// wrapper that hid it would make the batch runtime's workers share one
// evaluator's scratch — a data race, and a different program from the one
// the service runs.
type recordingEval struct {
	inner dse.IntoEvaluator
	rec   *evalRecorder
	log   *evalLog // private to one batch-runtime worker; nil for the shared root
}

func (e *recordingEval) NumObjectives() int { return e.inner.NumObjectives() }

func (e *recordingEval) Evaluate(c dse.Config) (dse.Objectives, error) {
	objs := make(dse.Objectives, e.inner.NumObjectives())
	if err := e.EvaluateInto(c, objs); err != nil {
		return nil, err
	}
	return objs, nil
}

func (e *recordingEval) EvaluateInto(c dse.Config, objs dse.Objectives) error {
	start := time.Since(e.rec.base)
	err := e.inner.EvaluateInto(c, objs)
	end := time.Since(e.rec.base)
	l := e.log
	if l == nil {
		e.rec.mu.Lock()
		defer e.rec.mu.Unlock()
		l = e.rec.root
	}
	l.iv = append(l.iv, int64(start), int64(end))
	if e.rec.capturing.Load() {
		if e.rec.budget.Add(-1) < 0 {
			e.rec.capturing.Store(false)
		} else {
			cfg := c.Clone()
			l.cfgs = append(l.cfgs, cfg)
			l.pts = append(l.pts, dse.Point{Config: cfg, Objs: append(dse.Objectives(nil), objs...), Feasible: err == nil})
			l.steps = append(l.steps, e.rec.step.Load())
		}
	}
	return err
}

func (e *recordingEval) Fork() dse.Evaluator {
	l := &evalLog{}
	e.rec.mu.Lock()
	e.rec.logs = append(e.rec.logs, l)
	e.rec.mu.Unlock()
	return &recordingEval{inner: e.inner.(dse.Forkable).Fork().(dse.IntoEvaluator), rec: e.rec, log: l}
}

// foldedStep is the model time inside one search step.
type foldedStep struct {
	count, busy, first, last int64
}

// fold merges every worker's call intervals into their union and assigns
// the covered time to the steps delimited by bounds (ns since base:
// search start, then each boundary). Workers are idle at boundaries, so
// no union segment straddles one.
func (r *evalRecorder) fold(bounds []int64) []foldedStep {
	var iv [][2]int64
	for _, l := range r.logs {
		for k := 0; k+1 < len(l.iv); k += 2 {
			iv = append(iv, [2]int64{l.iv[k], l.iv[k+1]})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	steps := make([]foldedStep, len(bounds)-1)
	at := func(t int64) *foldedStep {
		k := sort.Search(len(bounds), func(k int) bool { return bounds[k] > t }) - 1
		return &steps[min(max(k, 0), len(steps)-1)]
	}
	for k := 0; k < len(iv); {
		s, e := iv[k][0], iv[k][1]
		st := at(s)
		for ; k < len(iv) && iv[k][0] <= e; k++ {
			e = max(e, iv[k][1])
			st.count++
		}
		if st.first == 0 || s < st.first {
			st.first = s
		}
		st.last = max(st.last, e)
		st.busy += e - s
	}
	return steps
}

// capture is one job's replay input: the compiled problem and the
// evaluations the search missed the memo with, grouped by step.
type capture struct {
	compiled *scenario.Compiled
	workers  int
	batches  [][]dse.Config
	points   []dse.Point
}

func (r *evalRecorder) capture(compiled *scenario.Compiled, workers int) *capture {
	byStep := map[int32][]dse.Config{}
	c := &capture{compiled: compiled, workers: workers}
	var order []int32
	for _, l := range r.logs {
		for k, cfg := range l.cfgs {
			s := l.steps[k]
			if _, ok := byStep[s]; !ok {
				order = append(order, s)
			}
			byStep[s] = append(byStep[s], cfg)
			c.points = append(c.points, l.pts[k])
		}
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
	for _, s := range order {
		c.batches = append(c.batches, byStep[s])
	}
	if len(c.points) == 0 {
		return nil
	}
	return c
}

// Replay inputs are capped: captureBudget configurations, at least
// minCapturePerJob from each timed job while the budget lasts, and
// maxSnapshots checkpoint snapshots.
const (
	captureBudget    = 60000
	minCapturePerJob = 64
	maxSnapshots     = 32
)

// tracedRun is one traced run: every job of the sequence goes, back to
// back, through HTTP against a fresh wsn-serve, through an in-process
// service.Manager configured like it, and straight into dse (plain, then
// through the recording evaluator). Running the rungs job by job pairs
// their timings, so machine-wide drift cancels out of the differences the
// ladder is built from. Replays of the captured work follow, one layer at
// a time.
type tracedRun struct {
	e      *env
	w      *workload
	spec   func(int) service.Spec
	chk    *checker
	spans  spanLog
	first  int // index of the first timed job
	hashes [][32]byte

	srv    *server
	client *service.Client
	mgr    *service.Manager
	store  *service.Store
	cal    *casestudy.Calibration
	perJob int64

	mu                sync.Mutex
	attempted, failed int
	queueMs, frontKB  []float64
	fronts            []service.FrontResponse // timed HTTP fronts
	before, after     map[string]float64      // /metrics around the timed jobs
	evaluated         int64
	hits, lookups     int64
	archiveSize       []float64
	captures          []*capture
	snaps             []*dse.Snapshot
	budgetLeft        atomic.Int64
	experimentsMs     map[string][]float64
}

func (t *tracedRun) tally(err error) {
	t.mu.Lock()
	t.attempted++
	if err != nil {
		t.failed++
	}
	t.mu.Unlock()
	if err != nil {
		t.chk.fail("%v", err)
	}
}

// same checks a rung's front for job i against the HTTP rung's.
func (t *tracedRun) same(rung string, i int, h [32]byte) {
	if h != t.hashes[i] {
		t.chk.fail("job %d: %s front differs from the HTTP front", i, rung)
	}
}

func (e *env) runTraced(ctx context.Context, w *workload, seed int64, spansPath string) (*result, error) {
	t := &tracedRun{
		e: e, w: w, spec: w.specs(seed), chk: newChecker(w),
		first: w.traceWarmup, cal: casestudy.DefaultCalibration(),
		perJob: max(minCapturePerJob, int64(captureBudget/w.traceJobs)),
	}
	t.spans.base = time.Now()
	t.hashes = make([][32]byte, w.traceWarmup+w.traceJobs)
	t.budgetLeft.Store(captureBudget)
	if err := t.open(ctx); err != nil {
		return nil, err
	}
	job := func(i int) struct{} {
		t.httpJob(ctx, i)
		t.managerJob(ctx, i)
		t.tally(t.directJob(ctx, i))
		return struct{}{}
	}
	drive(ctx, w.clients, 0, count(t.first), job)
	var err error
	if t.before, err = scrape(t.srv.url); err != nil {
		t.close()
		return nil, err
	}
	start := time.Now()
	drive(ctx, w.clients, t.first, count(w.traceJobs), job)
	t.after, err = scrape(t.srv.url)
	t.close()
	if err != nil {
		return nil, err
	}
	e.logf("%s: %d timed jobs through every rung in %.1fs", w.name, w.traceJobs, time.Since(start).Seconds())
	if w.passes {
		if err := t.experimentsRung(ctx); err != nil {
			return nil, err
		}
	}
	vals, err := t.layerMetrics()
	if err != nil {
		return nil, err
	}
	if seed == 1 && !w.passes && len(t.hashes) >= w.digestJobs {
		t.chk.digest(e, seed, t.hashes)
	}
	if err := t.writeSpans(spansPath, seed); err != nil {
		return nil, err
	}
	res := &result{Correct: t.chk.ok(e), Attempted: t.attempted, Failed: t.failed}
	if missing := res.fill(perLayer, vals); missing != nil {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return res, nil
}

// open starts the rungs' services: a fresh wsn-serve, an in-process
// Manager with the same configuration, and the direct rung's result store,
// each with its own directories.
func (t *tracedRun) open(ctx context.Context) error {
	if t.w.family {
		if _, err := family.EnableAll(); err != nil {
			return err
		}
	}
	var dirs [3]string
	for k, prefix := range []string{"server", "manager", "store"} {
		dir, err := t.e.dir(prefix)
		if err != nil {
			return err
		}
		dirs[k] = dir
	}
	cfg := service.Config{Workers: 2, Logf: func(string, ...any) {}}
	var storeDir string
	if t.w.family {
		cfg.ResultDir = filepath.Join(dirs[1], "results")
		cfg.CheckpointDir = filepath.Join(dirs[1], "checkpoints")
		cfg.ObsDir = filepath.Join(dirs[1], "obs")
		storeDir = dirs[2]
	}
	var err error
	if t.store, err = service.NewStore(service.StoreConfig{Dir: storeDir}); err != nil {
		return err
	}
	if t.mgr, err = service.New(cfg); err != nil {
		t.store.Close()
		return err
	}
	if t.srv, err = startServer(ctx, t.e.bin("wsn-serve"), dirs[0], serverArgs(t.w, dirs[0])); err != nil {
		t.mgr.Close()
		t.store.Close()
		return err
	}
	t.client = newClient(t.srv.url)
	return nil
}

func (t *tracedRun) close() {
	t.client.HTTPClient.CloseIdleConnections()
	t.srv.stop()
	t.mgr.Close()
	t.store.Close()
}

// httpJob runs job i against the server.
func (t *tracedRun) httpJob(ctx context.Context, i int) {
	r := runHTTPJob(ctx, t.client, i, t.spec(i))
	t.tally(r.err)
	if r.err != nil {
		return
	}
	t.chk.front(i, r.spec, r.front, r.hash)
	t.hashes[i] = r.hash
	if i < t.first {
		return
	}
	id := t.spans.addAt("http.job", i, 0, r.t[0], r.t[3])
	t.spans.addAt("http.submit", i, id, r.t[0], r.t[1])
	t.spans.addAt("http.wait", i, id, r.t[1], r.t[2])
	t.spans.addAt("http.front", i, id, r.t[2], r.t[3])
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.info.StartedAt != nil {
		t.queueMs = append(t.queueMs, float64(r.info.StartedAt.Sub(r.info.CreatedAt))/1e6)
	}
	t.frontKB = append(t.frontKB, float64(r.frontBytes)/1024)
	t.fronts = append(t.fronts, r.front)
}

// managerJob runs job i on the in-process Manager.
func (t *tracedRun) managerJob(ctx context.Context, i int) {
	start := time.Now()
	info, err := t.mgr.Submit(t.spec(i))
	if err == nil {
		info, err = t.mgr.Wait(ctx, info.ID)
	}
	if err == nil && info.Status != service.StatusDone {
		err = fmt.Errorf("job %s ended %s: %s", info.ID, info.Status, info.Error)
	}
	var f service.FrontResponse
	if err == nil {
		f, err = t.mgr.Front(info.ID)
	}
	end := time.Now()
	t.tally(err)
	if err != nil {
		return
	}
	t.same("Manager", i, frontHash(f))
	if i >= t.first {
		t.spans.addAt("service.job", i, 0, start, end)
	}
}

// search runs spec's algorithm straight on dse, configured as the
// Manager configures it.
func search(space *dse.Space, eval dse.Evaluator, spec service.Spec, opts dse.Options) (*dse.Result, error) {
	switch spec.Algorithm {
	case service.AlgoNSGA2:
		cfg := *spec.NSGA2
		cfg.Seed, cfg.Workers = spec.Seed, spec.Workers
		return dse.NSGA2Opts(space, eval, cfg, opts)
	case service.AlgoMOSA:
		cfg := *spec.MOSA
		cfg.Seed, cfg.Workers = spec.Seed, spec.Workers
		return dse.MOSAOpts(space, eval, cfg, opts)
	}
	return nil, fmt.Errorf("the benchmark drives nsga2 and mosa only, not %q", spec.Algorithm)
}

// midRunCheckpoint is the recorded search's checkpoint interval: the
// spec's own, or one snapshot halfway through a job whose spec does not
// checkpoint, so every workload's checkpoint cost can be sized.
func midRunCheckpoint(spec service.Spec) int {
	if spec.CheckpointEvery > 0 {
		return spec.CheckpointEvery
	}
	if spec.NSGA2 != nil {
		return max(1, spec.NSGA2.Generations/2)
	}
	return 1
}

// directJob replays job i as the Manager executes it, one layer call at
// a time: compile, warm-start resolution against a store fed in job
// order, the search (plain, then through the recording evaluator), and
// the store put.
func (t *tracedRun) directJob(ctx context.Context, i int) error {
	spec := t.spec(i)
	timed := i >= t.first
	sc, ok := scenario.Lookup(spec.Scenario)
	if !ok {
		return fmt.Errorf("job %d: scenario %q is not registered", i, spec.Scenario)
	}
	t0 := time.Now()
	problem, err := scenario.NewProblem(sc, t.cal)
	if err != nil {
		return err
	}
	compiled, err := problem.Compile()
	if err != nil {
		return err
	}
	t1 := time.Now()
	seeds, _, err := service.ResolveWarmStart(t.store, spec.WarmStart, sc.Fingerprint(), service.ObjectivesFull,
		spec.Algorithm, spec.Scenario, problem.Space())
	if err != nil {
		return err
	}
	t2 := time.Now()

	// The plain search carries the hooks the Manager attaches: a progress
	// sink (dse copies the front for it), a stats sink and, when the spec
	// checkpoints, a checkpoint sink.
	var bounds []time.Time
	var last dse.Stats
	opts := dse.Options{
		Context:         ctx,
		Progress:        func(dse.Progress) {},
		Stats:           func(s dse.Stats) { bounds = append(bounds, time.Now()); last = s },
		CheckpointEvery: spec.CheckpointEvery,
		SeedPoints:      seeds,
	}
	if spec.CheckpointEvery > 0 {
		opts.Checkpoint = func(*dse.Snapshot) error { return nil }
	}
	t3 := time.Now()
	res, err := search(problem.Space(), compiled.Evaluator(), spec, opts)
	if err != nil {
		return err
	}
	t4 := time.Now()

	budget := int64(0)
	if timed {
		budget = min(t.perJob, t.budgetLeft.Load())
	}
	rec := newEvalRecorder(t.spans.base, budget)
	var wbounds []time.Time
	var snaps []*dse.Snapshot
	wopts := opts
	wopts.Stats = func(dse.Stats) { wbounds = append(wbounds, time.Now()); rec.step.Add(1) }
	wopts.CheckpointEvery = midRunCheckpoint(spec)
	wopts.Checkpoint = func(s *dse.Snapshot) error { snaps = append(snaps, s); return nil }
	t5 := time.Now()
	wres, err := search(problem.Space(), rec.wrap(compiled.Evaluator()), spec, wopts)
	if err != nil {
		return err
	}
	t6 := time.Now()

	front := resultFront(spec, res)
	t.same("direct dse", i, frontHash(front))
	t.same("recorded direct dse", i, frontHash(resultFront(spec, wres)))
	stored := service.StoredResult{
		JobID: fmt.Sprintf("j%d", i+1), Scenario: spec.Scenario, Algorithm: spec.Algorithm,
		Objectives: service.ObjectivesFull, Seed: spec.Seed, Evaluated: res.Evaluated, Infeasible: res.Infeasible,
		Front: front.Front, CompletedAt: time.Now(), Fingerprint: sc.Fingerprint(),
	}
	t7 := time.Now()
	if _, err := t.store.Put(stored); err != nil {
		return err
	}
	t8 := time.Now()
	if !timed {
		return nil
	}

	l := &t.spans
	job := l.addAt("direct.job", i, 0, t0, t8)
	l.addAt("scenario.compile", i, job, t0, t1)
	l.addAt("service.warmstart", i, job, t1, t2)
	plain := l.addAt("dse.search", i, job, t3, t4)
	prev := t3
	for _, b := range bounds {
		l.addAt("dse.step", i, plain, prev, b)
		prev = b
	}
	traced := l.addAt("dse.search.traced", i, job, t5, t6)
	nsBounds := []int64{l.ns(t5)}
	for _, b := range wbounds {
		nsBounds = append(nsBounds, l.ns(b))
	}
	for k, st := range rec.fold(nsBounds) {
		step := l.add(span{Name: "dse.step.traced", Job: i, Parent: traced, Start: nsBounds[k], End: nsBounds[k+1]})
		if st.count > 0 {
			l.add(span{Name: "model.eval", Job: i, Parent: step, Start: st.first, End: st.last, Count: st.count, Busy: st.busy})
		}
	}
	l.addAt("store.put", i, job, t7, t8)

	c := rec.capture(compiled, spec.Workers)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evaluated += int64(res.Evaluated)
	t.hits += last.CacheHits
	t.lookups += last.CacheLookups
	t.archiveSize = append(t.archiveSize, float64(len(res.Front)))
	if c != nil {
		t.captures = append(t.captures, c)
		t.budgetLeft.Add(-int64(len(c.points)))
	}
	for _, s := range snaps {
		if len(t.snaps) < maxSnapshots {
			t.snaps = append(t.snaps, s)
		}
	}
	return nil
}

// experimentsRung times paper-validate's experiments in process, as
// wsn-experiments schedules them; every report must pass its checks.
func (t *tracedRun) experimentsRung(ctx context.Context) error {
	const passes = 3
	t.experimentsMs = map[string][]float64{}
	start := time.Now()
	for p := 0; p < passes; p++ {
		jobs := paperJobs()
		for k := range jobs {
			run, name := jobs[k].Run, jobs[k].Name
			jobs[k].Run = func(ctx context.Context) (experiments.Report, error) {
				start := time.Now()
				r, err := run(ctx)
				end := time.Now()
				t.spans.addAt("experiments."+name, p, 0, start, end)
				t.mu.Lock()
				t.experimentsMs[name] = append(t.experimentsMs[name], float64(end.Sub(start))/1e6)
				t.mu.Unlock()
				return r, err
			}
		}
		for _, out := range experiments.RunJobsContext(ctx, jobs, 2) {
			err := out.Err
			if err == nil {
				err = out.Report.Check()
			}
			if err != nil {
				err = fmt.Errorf("experiment %s: %w", out.Name, err)
			}
			t.tally(err)
		}
	}
	t.e.logf("%s: %d in-process experiment passes in %.1fs", t.w.name, passes, time.Since(start).Seconds())
	return ctx.Err()
}

// paperJobs are the experiments of a paper-validate pass, configured as
// wsn-experiments configures them for experimentsArgs.
func paperJobs() []experiments.Job {
	names := builtinScenarios()
	return []experiments.Job{
		{Name: "fig3", Run: func(context.Context) (experiments.Report, error) {
			return experiments.Fig3(experiments.Fig3Config{})
		}},
		{Name: "fig4", Run: func(context.Context) (experiments.Report, error) {
			return experiments.Fig4(experiments.Fig4Config{})
		}},
		{Name: "delay", Run: func(context.Context) (experiments.Report, error) {
			return experiments.DelayVal(experiments.DelayValConfig{Runs: 130, SimDuration: units.Seconds(30)})
		}},
		{Name: "fig5", Run: func(context.Context) (experiments.Report, error) {
			return experiments.Fig5(experiments.Fig5Config{PopulationSize: 96, Generations: 60, RunMOSA: true, Workers: 2})
		}},
		{Name: "ablation-theta", Run: func(context.Context) (experiments.Report, error) {
			return experiments.ThetaAblation(experiments.ThetaAblationConfig{Workers: 2})
		}},
		{Name: "ablation-arrival", Run: func(context.Context) (experiments.Report, error) {
			return experiments.ArrivalAblation(experiments.ArrivalAblationConfig{})
		}},
		{Name: "scenarios", Run: func(ctx context.Context) (experiments.Report, error) {
			return experiments.ScenarioSweepContext(ctx, experiments.ScenarioSweepConfig{Names: names, Workers: 2})
		}},
	}
}
