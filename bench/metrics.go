package main

// metricDef is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none. BENCHMARK.json at the
// repository root lists the same definitions (TestBenchmarkJSONMatches
// keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. On a shared 2-vCPU machine job times, rates and CPU time
// per job spread 0.5–2.8 (IQR ÷ median) over ten runs of one commit, far
// past any allowed bound, so they are not among them (see README.md).
// Set-up time, a timing too, gets the widest bound allowed; peak memory,
// read after a fixed job count, does not follow the machine's speed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.2},
}

// perLayer are the traced run's layer metrics, bottom-up along the
// ladder: compiled model → memo/batch runtime → search → service.Manager
// → HTTP, plus the store, checkpoint, warm-start, telemetry and simulator
// side paths a job touches.
var perLayer = []metricDef{
	{"model.eval_ns", "ns", "lower", 0},
	{"model.allocs_per_eval", "count", "lower", 0},
	{"model.self_ms", "ms", "lower", 0},
	{"dse.memo.miss_ns", "ns", "lower", 0},
	{"dse.memo.allocs_per_miss", "count", "lower", 0},
	{"dse.memo.hit_ratio", "ratio", "higher", 0},
	{"dse.evaluated", "count", "lower", 0},
	{"dse.archive.add_ns", "ns", "lower", 0},
	{"dse.archive.size", "count", "higher", 0},
	{"dse.search_ms", "ms", "lower", 0},
	{"dse.step_ms", "ms", "lower", 0},
	{"dse.search.self_ms", "ms", "lower", 0},
	{"scenario.compile_ms", "ms", "lower", 0},
	{"service.warmstart_ms", "ms", "lower", 0},
	{"store.put_ms", "ms", "lower", 0},
	{"checkpoint.encode_ms", "ms", "lower", 0},
	{"checkpoint.kb", "KB", "lower", 0},
	{"service.job_ms", "ms", "lower", 0},
	{"service.queue_ms", "ms", "lower", 0},
	{"service.self_ms", "ms", "lower", 0},
	{"obs.samples_per_job", "count", "lower", 0},
	{"obs.bytes_per_job", "bytes", "lower", 0},
	{"server.http_requests_per_job", "count", "lower", 0},
	{"http.submit_ms", "ms", "lower", 0},
	{"http.wait_ms", "ms", "lower", 0},
	{"http.front_ms", "ms", "lower", 0},
	{"http.front_kb", "KB", "lower", 0},
	{"http.job_ms", "ms", "lower", 0},
	{"http.self_ms", "ms", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"ladder.coverage_pct", "%", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of standard
// output is this object as JSON.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill copies the named values into r.Metrics in defs order, with units
// from defs. A definition missing from vals is an error in the caller:
// every run reports its full metric set.
func (r *result) fill(defs []metricDef, vals map[string]float64) []string {
	r.Metrics = make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return missing
}
