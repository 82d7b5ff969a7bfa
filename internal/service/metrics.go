package service

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metrics is the manager's process-wide telemetry registry: lock-free
// atomic counters and gauges updated on job lifecycle edges, search
// boundaries, SSE subscriptions and store evictions, scraped by
// Manager.WriteMetrics in Prometheus text exposition format. Everything
// on the update side is a single atomic add (label lookups are cached by
// the caller), so the registry costs nothing measurable on the job hot
// path; the scrape side may allocate freely.
type metrics struct {
	start time.Time

	jobsSubmitted atomic.Int64
	jobsQueued    atomic.Int64 // gauge: queued or waiting out a retry
	jobsRunning   atomic.Int64 // gauge
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsTimedOut  atomic.Int64
	jobsCancelled atomic.Int64
	retries       atomic.Int64
	jobsEvicted   atomic.Int64

	evals          labeledCounter // distinct evaluations, by scenario
	sseSubscribers atomic.Int64   // gauge

	islandRounds   atomic.Int64
	islandRestarts atomic.Int64

	obsSamples atomic.Int64
	obsBytes   atomic.Int64

	httpRequests labeledCounter // by `method="GET",code="200"` label pair
}

func newMetrics() *metrics {
	return &metrics{start: time.Now()}
}

// completed bumps the terminal-status counter matching s.
func (mt *metrics) completed(s Status) {
	switch s {
	case StatusDone:
		mt.jobsDone.Add(1)
	case StatusFailed:
		mt.jobsFailed.Add(1)
	case StatusTimedOut:
		mt.jobsTimedOut.Add(1)
	case StatusCancelled:
		mt.jobsCancelled.Add(1)
	}
}

// labeledCounter is a counter family keyed by a rendered label string
// (e.g. `scenario="ecg-ward"`). Get returns the label's atomic cell so
// hot paths resolve their label once and then pay only the atomic add.
type labeledCounter struct {
	mu    sync.Mutex
	cells map[string]*atomic.Int64
}

func (c *labeledCounter) get(label string) *atomic.Int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cells == nil {
		c.cells = make(map[string]*atomic.Int64)
	}
	cell, ok := c.cells[label]
	if !ok {
		cell = &atomic.Int64{}
		c.cells[label] = cell
	}
	return cell
}

// snapshot returns the family's labels in sorted order, so scrapes are
// deterministic.
func (c *labeledCounter) snapshot() (labels []string, values []int64) {
	c.mu.Lock()
	labels = make([]string, 0, len(c.cells))
	for l := range c.cells {
		labels = append(labels, l)
	}
	c.mu.Unlock()
	sort.Strings(labels)
	values = make([]int64, len(labels))
	for i, l := range labels {
		values[i] = c.cells[l].Load()
	}
	return labels, values
}

// ObserveHTTPRequest counts one finished HTTP request into the
// wsndse_http_requests_total family. The serving layer (wsn-serve's
// access-log middleware) calls it; method is the HTTP verb, status the
// response code. net/http accepts any token as a method, so a method
// outside its nine Method* constants counts as "OTHER": each label
// pair is a series kept for the life of the process, and clients must
// not be able to mint them.
func (m *Manager) ObserveHTTPRequest(method string, status int) {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
		http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace:
	default:
		method = "OTHER"
	}
	m.met.httpRequests.get(fmt.Sprintf("method=%q,code=\"%d\"", method, status)).Add(1)
}

// WriteMetrics renders the service's telemetry in Prometheus text
// exposition format (text/plain; version=0.0.4): job lifecycle counters
// and gauges, queue depth, per-scenario evaluation totals, SSE
// subscriber and result-store gauges, island supervision counters,
// obs-stream volume, HTTP traffic, and process runtime stats. Values are
// read atomically but not as one snapshot — families may be skewed by
// in-flight updates, which is the normal Prometheus contract.
func (m *Manager) WriteMetrics(w io.Writer) {
	mt := m.met
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	family := func(name, help, typ string, c *labeledCounter) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		labels, values := c.snapshot()
		for i, l := range labels {
			fmt.Fprintf(w, "%s{%s} %d\n", name, l, values[i])
		}
	}

	counter("wsndse_jobs_submitted_total", "Jobs accepted by Submit.", mt.jobsSubmitted.Load())
	fmt.Fprintf(w, "# HELP wsndse_jobs_completed_total Jobs that reached a terminal state, by status.\n"+
		"# TYPE wsndse_jobs_completed_total counter\n")
	for _, s := range []struct {
		status string
		v      int64
	}{
		{"done", mt.jobsDone.Load()},
		{"failed", mt.jobsFailed.Load()},
		{"timed_out", mt.jobsTimedOut.Load()},
		{"cancelled", mt.jobsCancelled.Load()},
	} {
		fmt.Fprintf(w, "wsndse_jobs_completed_total{status=%q} %d\n", s.status, s.v)
	}
	gauge("wsndse_jobs_queued", "Jobs queued or waiting out a retry backoff.", mt.jobsQueued.Load())
	gauge("wsndse_jobs_running", "Jobs currently executing on a worker.", mt.jobsRunning.Load())
	gauge("wsndse_queue_depth", "Jobs buffered in the submission queue.", int64(len(m.queue)))
	counter("wsndse_job_retries_total", "Failed attempts that re-queued for another try.", mt.retries.Load())
	family("wsndse_evals_total", "Distinct design-point evaluations, by scenario.", "counter", &mt.evals)
	gauge("wsndse_sse_subscribers", "Open /v1/jobs/{id}/events streams.", mt.sseSubscribers.Load())
	gauge("wsndse_store_results", "Fronts resident in the result store.", int64(m.store.Len()))
	counter("wsndse_store_evictions_total", "Results evicted from the store (LRU).", m.store.Evictions())
	m.mu.Lock()
	retained := len(m.jobs)
	m.mu.Unlock()
	gauge("wsndse_jobs_retained", "Job records held in memory: queued, running and the last -max-results finished.", int64(retained))
	counter("wsndse_jobs_evicted_total", "Finished job records dropped past the -max-results bound.", mt.jobsEvicted.Load())
	counter("wsndse_island_rounds_total", "Island migration rounds completed.", mt.islandRounds.Load())
	counter("wsndse_island_restarts_total", "Island attempts retried after a crash or stall.", mt.islandRestarts.Load())
	counter("wsndse_obs_samples_total", "Telemetry samples recorded across all jobs.", mt.obsSamples.Load())
	counter("wsndse_obs_bytes_total", "Bytes of obs telemetry written across all jobs.", mt.obsBytes.Load())
	family("wsndse_http_requests_total", "HTTP requests served, by method and status code.", "counter", &mt.httpRequests)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("wsndse_heap_alloc_bytes", "Bytes of allocated heap objects.", int64(ms.HeapAlloc))
	gauge("wsndse_goroutines", "Live goroutines.", int64(runtime.NumGoroutine()))
	fmt.Fprintf(w, "# HELP wsndse_gc_pause_seconds_total Cumulative GC stop-the-world pause time.\n"+
		"# TYPE wsndse_gc_pause_seconds_total counter\nwsndse_gc_pause_seconds_total %g\n",
		float64(ms.PauseTotalNs)/1e9)
	fmt.Fprintf(w, "# HELP wsndse_uptime_seconds Seconds since the manager started.\n"+
		"# TYPE wsndse_uptime_seconds gauge\nwsndse_uptime_seconds %g\n",
		time.Since(mt.start).Seconds())
}
