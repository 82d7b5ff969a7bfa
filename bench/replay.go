package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/sim"
)

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

const replayPasses = 3

// replayModel times bare forked compiled evaluations over every captured
// configuration: ns per evaluation (median of passes) and allocations per
// evaluation. Infeasible configurations are timed like the rest — the
// search pays for them too.
func (t *tracedRun) replayModel() (ns, allocs float64) {
	evs := make([]dse.IntoEvaluator, len(t.captures))
	for k, c := range t.captures {
		evs[k] = c.compiled.Evaluator().(dse.Forkable).Fork().(dse.IntoEvaluator)
	}
	objs := make(dse.Objectives, 3)
	var perPass []float64
	for p := 0; p < replayPasses; p++ {
		var n int64
		m0 := mallocs()
		start := time.Now()
		for k, c := range t.captures {
			for _, b := range c.batches {
				for _, cfg := range b {
					_ = evs[k].EvaluateInto(cfg, objs)
					n++
				}
			}
		}
		el := time.Since(start)
		allocs = float64(mallocs()-m0) / float64(n)
		perPass = append(perPass, float64(el.Nanoseconds())/float64(n))
	}
	return median(perPass), allocs
}

// replayMemo pushes each captured step's distinct configurations through
// EvaluateBatch on a fresh ParallelEvaluator (built outside the timing) at
// the job's worker count: every lookup misses, so the time per
// configuration minus the bare model time is the memo/batch runtime's
// cost per miss.
func (t *tracedRun) replayMemo(modelNs float64) (missNs, allocs float64) {
	var el time.Duration
	var n, a uint64
	for _, c := range t.captures {
		pes := make([]*dse.ParallelEvaluator, len(c.batches))
		for k := range pes {
			pes[k] = dse.NewParallelEvaluator(c.compiled.Evaluator(), c.workers)
		}
		m0 := mallocs()
		start := time.Now()
		for k, b := range c.batches {
			pes[k].EvaluateBatch(b)
		}
		el += time.Since(start)
		a += mallocs() - m0
		for _, b := range c.batches {
			n += uint64(len(b))
		}
	}
	return float64(el.Nanoseconds())/float64(n) - modelNs, float64(a) / float64(n)
}

// replayArchive re-adds each job's captured points, in evaluation order,
// to a fresh archive: ns per Archive.Add (median of passes).
func (t *tracedRun) replayArchive() float64 {
	var perPass []float64
	for p := 0; p < replayPasses; p++ {
		var el time.Duration
		var n int
		for _, c := range t.captures {
			var arch dse.Archive
			start := time.Now()
			for _, pt := range c.points {
				arch.Add(pt)
			}
			el += time.Since(start)
			n += len(c.points)
		}
		perPass = append(perPass, float64(el.Nanoseconds())/float64(n))
	}
	return median(perPass)
}

// replayCheckpoints encodes every captured snapshot into its durable
// envelope: ms per encode and KB per envelope, medians.
func (t *tracedRun) replayCheckpoints() (ms, kb float64, err error) {
	var mss, kbs []float64
	for _, s := range t.snaps {
		start := time.Now()
		b, err := dse.EncodeSnapshotFile(s)
		if err != nil {
			return 0, 0, err
		}
		mss = append(mss, float64(time.Since(start).Nanoseconds())/1e6)
		kbs = append(kbs, float64(len(b))/1024)
	}
	return median(mss), median(kbs), nil
}

// simScenarios caps the simulator replay.
const simScenarios = 4

// replaySim validates the balanced point of the first timed front of up to
// simScenarios distinct scenarios in the packet-level simulator, as a
// designer checks a chosen design: ns per dispatched event, and the event
// count.
func (t *tracedRun) replaySim() (nsPerEvent, events float64, err error) {
	seen := map[string]bool{}
	var el time.Duration
	var ev int64
	for _, f := range t.fronts {
		if seen[f.Scenario] || len(seen) == simScenarios || len(f.Front) == 0 {
			continue
		}
		seen[f.Scenario] = true
		sc, _ := scenario.Lookup(f.Scenario)
		p, err := scenario.NewProblem(sc, t.cal)
		if err != nil {
			return 0, 0, err
		}
		pts := make([]dse.Point, len(f.Front))
		for k, fp := range f.Front {
			pts[k] = dse.Point{Config: fp.Config, Objs: fp.Objs, Feasible: true}
		}
		params, err := p.Decode(dse.BalancedPoint(pts).Config)
		if err != nil {
			return 0, 0, err
		}
		cfg, err := p.SimConfig(params, sc.SimDuration, sc.SimSeed)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		r, err := sim.Run(cfg)
		if err != nil {
			return 0, 0, err
		}
		el += time.Since(start)
		ev += r.Events
	}
	if ev == 0 {
		return 0, 0, fmt.Errorf("no simulator events")
	}
	return float64(el.Nanoseconds()) / float64(ev), float64(ev), nil
}

// layerMetrics derives the per-layer metrics from the spans, the counts
// and the replays. Rung self times telescope down the ladder, each the
// median over timed jobs of a per-job difference: http.self = HTTP job −
// Manager job; service.self = Manager job − compile − warm start − search
// − store put. The recorded search splits into the model (the union of
// its model.eval spans) and everything else: the algorithm plus the
// memo/batch runtime.
func (t *tracedRun) layerMetrics() (map[string]float64, error) {
	if len(t.captures) == 0 || len(t.snaps) == 0 {
		return nil, fmt.Errorf("no evaluations or snapshots captured")
	}
	spans := t.spans.spans
	self := selfTimes(spans)
	ms := map[string]map[int]float64{} // span name → job → ms
	put := func(name string, job int, ns int64) {
		if ms[name] == nil {
			ms[name] = map[int]float64{}
		}
		ms[name][job] += float64(ns) / 1e6
	}
	for _, s := range spans {
		put(s.Name, s.Job, s.End-s.Start)
		switch s.Name {
		case "dse.search.traced": // outside the model: its self time plus its steps'
			put("search.self", s.Job, self[s.ID])
		case "dse.step.traced":
			put("search.self", s.Job, self[s.ID])
		case "model.eval":
			put("model", s.Job, s.Busy)
		}
	}
	p50 := func(name string) float64 {
		var xs []float64
		for _, v := range ms[name] {
			xs = append(xs, v)
		}
		return median(xs)
	}
	perJob := func(f func(j int) float64) float64 {
		var xs []float64
		for j := range ms["direct.job"] {
			if _, ok := ms["http.job"][j]; ok {
				if _, ok := ms["service.job"][j]; ok {
					xs = append(xs, f(j))
				}
			}
		}
		return median(xs)
	}
	get := func(name string) func(int) float64 { return func(j int) float64 { return ms[name][j] } }
	h, m := get("http.job"), get("service.job")
	compile, ws, sput := get("scenario.compile"), get("service.warmstart"), get("store.put")
	plain, traced := get("dse.search"), get("dse.search.traced")
	httpSelf := perJob(func(j int) float64 { return h(j) - m(j) })
	serviceSelf := perJob(func(j int) float64 { return m(j) - compile(j) - ws(j) - plain(j) - sput(j) })
	ladder := httpSelf + serviceSelf + p50("scenario.compile") + p50("service.warmstart") +
		p50("store.put") + p50("search.self") + p50("model")

	modelNs, modelAllocs := t.replayModel()
	missNs, missAllocs := t.replayMemo(modelNs)
	ckMs, ckKB, err := t.replayCheckpoints()
	if err != nil {
		return nil, err
	}
	simNs, simEvents, err := t.replaySim()
	if err != nil {
		return nil, err
	}
	jobs := float64(t.w.traceJobs)
	delta := func(name string) float64 { return t.after[name] - t.before[name] }
	return map[string]float64{
		"model.eval_ns":                modelNs,
		"model.allocs_per_eval":        modelAllocs,
		"model.self_ms":                p50("model"),
		"dse.memo.miss_ns":             missNs,
		"dse.memo.allocs_per_miss":     missAllocs,
		"dse.memo.hit_ratio":           float64(t.hits) / float64(t.lookups),
		"dse.evaluated":                float64(t.evaluated),
		"dse.archive.add_ns":           t.replayArchive(),
		"dse.archive.size":             median(t.archiveSize),
		"dse.search_ms":                p50("dse.search"),
		"dse.step_ms":                  median(durationsMs(spans, "dse.step")),
		"dse.search.self_ms":           p50("search.self"),
		"scenario.compile_ms":          p50("scenario.compile"),
		"service.warmstart_ms":         p50("service.warmstart"),
		"store.put_ms":                 p50("store.put"),
		"checkpoint.encode_ms":         ckMs,
		"checkpoint.kb":                ckKB,
		"service.job_ms":               p50("service.job"),
		"service.queue_ms":             median(t.queueMs),
		"service.self_ms":              serviceSelf,
		"obs.samples_per_job":          delta("wsndse_obs_samples_total") / jobs,
		"obs.bytes_per_job":            delta("wsndse_obs_bytes_total") / jobs,
		"server.http_requests_per_job": (delta("wsndse_http_requests_total") - 1) / jobs, // minus the first scrape
		"http.submit_ms":               p50("http.submit"),
		"http.wait_ms":                 p50("http.wait"),
		"http.front_ms":                p50("http.front"),
		"http.front_kb":                median(t.frontKB),
		"http.job_ms":                  p50("http.job"),
		"http.self_ms":                 httpSelf,
		"sim.ns_per_event":             simNs,
		"sim.events":                   simEvents,
		"ladder.coverage_pct":          ladder / p50("http.job") * 100,
		"trace.overhead_pct":           perJob(func(j int) float64 { return (traced(j) - plain(j)) / plain(j) * 100 }),
	}, nil
}

// durationsMs returns the durations of the named spans, in ms.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeSpans writes the run's spans, each with its self time, as JSON.
func (t *tracedRun) writeSpans(path string, seed int64) error {
	self := selfTimes(t.spans.spans)
	type out struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	doc := struct {
		Workload    string               `json:"workload"`
		Seed        int64                `json:"seed"`
		Experiments map[string][]float64 `json:"experiments_ms,omitempty"`
		Spans       []out                `json:"spans"`
	}{Workload: t.w.name, Seed: seed, Experiments: t.experimentsMs}
	for _, s := range t.spans.spans {
		doc.Spans = append(doc.Spans, out{s, self[s.ID]})
	}
	for _, j := range paperJobs() {
		if ms, ok := t.experimentsMs[j.Name]; ok {
			t.e.logf("%s: experiments.%s_ms p50 %.1f", t.w.name, j.Name, median(ms))
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	t.e.logf("%s: %d spans written to %s", t.w.name, len(t.spans.spans), path)
	return os.WriteFile(path, data, 0o644)
}
