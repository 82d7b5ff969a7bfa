package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wsndse/internal/dse"
	"wsndse/internal/obs"
)

// fieldIndex locates a column in a stats field list.
func fieldIndex(t *testing.T, fields []string, name string) int {
	t.Helper()
	for i, f := range fields {
		if f == name {
			return i
		}
	}
	t.Fatalf("field %q missing from %v", name, fields)
	return -1
}

// readObsFile decodes a whole obs stream, failing on a torn or foreign one.
func readObsFile(t *testing.T, path string) []obs.Sample {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, truncated, err := obs.ReadAll(f)
	if err != nil || truncated {
		t.Fatalf("%s: %d samples, truncated=%v, err=%v", filepath.Base(path), len(samples), truncated, err)
	}
	return samples
}

// TestOpenObsTrimsTornTail: a continued job appends to its old obs
// stream, and a tail the old process's crash tore is cut off first, so
// every intact sample on either side of the restart stays readable. A
// torn magic restarts the stream; a file that is not an obs stream fails
// the open and is left as it was.
func TestOpenObsTrimsTornTail(t *testing.T) {
	fields := []string{"step", "evaluated"}
	appendThree := func(path string, from int64) {
		t.Helper()
		f, w, err := openObs(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for i := from; i < from+3; i++ {
			if err := w.WriteSample(fields, []int64{i, 10 * i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	steps := func(path string) []int64 {
		t.Helper()
		var out []int64
		for _, s := range readObsFile(t, path) {
			out = append(out, s.Values[0])
		}
		return out
	}
	dir := t.TempDir()

	path := filepath.Join(dir, "j1.obs")
	appendThree(path, 0)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-2); err != nil { // tear the last sample
		t.Fatal(err)
	}
	appendThree(path, 3)
	if got := fmt.Sprint(steps(path)); got != "[0 1 3 4 5]" {
		t.Fatalf("continued stream holds steps %s, want [0 1 3 4 5]", got)
	}

	torn := filepath.Join(dir, "j2.obs")
	if err := os.WriteFile(torn, []byte(obs.Magic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	appendThree(torn, 0)
	if got := fmt.Sprint(steps(torn)); got != "[0 1 2]" {
		t.Fatalf("stream behind a torn magic holds steps %s, want [0 1 2]", got)
	}

	foreign := filepath.Join(dir, "j3.obs")
	if err := os.WriteFile(foreign, []byte("not an obs stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openObs(foreign); !errors.Is(err, obs.ErrBadMagic) {
		t.Fatalf("foreign file: err = %v, want obs.ErrBadMagic", err)
	}
	if data, _ := os.ReadFile(foreign); string(data) != "not an obs stream" {
		t.Fatalf("foreign file rewritten to %q", data)
	}
}

// TestJobTelemetryEndToEnd runs a job with an obs directory and a
// sample-every-boundary interval, then checks the window and the on-disk
// stream agree once the job is done and carry monotone search-health
// counters, and that every telemetry view ends where JobInfo says the job
// ended.
func TestJobTelemetryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Workers: 1, ObsDir: dir, ObsSampleInterval: time.Nanosecond})
	defer m.Close()

	info, err := m.Submit(smallNSGA2("ecg-ward", 7))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, info.ID)
	if final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}

	resp, err := m.JobStats(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) == 0 {
		t.Fatal("no telemetry rows after a finished job")
	}
	if resp.Samples != int64(len(resp.Rows)) {
		t.Fatalf("lifetime samples %d, window %d (ring should not have wrapped)", resp.Samples, len(resp.Rows))
	}
	step := fieldIndex(t, resp.Fields, "step")
	total := fieldIndex(t, resp.Fields, "total_steps")
	evald := fieldIndex(t, resp.Fields, "evaluated")
	lookups := fieldIndex(t, resp.Fields, "cache_lookups")
	hits := fieldIndex(t, resp.Fields, "cache_hits")
	hv := fieldIndex(t, resp.Fields, "hypervolume_x1e6")
	for i, row := range resp.Rows {
		if len(row) != len(resp.Fields) {
			t.Fatalf("row %d: %d values, %d fields", i, len(row), len(resp.Fields))
		}
		if i == 0 {
			continue
		}
		prev := resp.Rows[i-1]
		if row[step] <= prev[step] || row[evald] < prev[evald] || row[lookups] < prev[lookups] || row[hits] < prev[hits] {
			t.Fatalf("row %d not monotone after %v: %v", i, prev, row)
		}
	}
	last := resp.Rows[len(resp.Rows)-1]
	if last[step] != last[total] {
		t.Fatalf("final sample at step %d of %d", last[step], last[total])
	}
	if last[evald] == 0 || last[hv] <= 0 {
		t.Fatalf("final sample evaluated=%d hv=%d", last[evald], last[hv])
	}

	// The obs file is the same series, torn-tail tolerant and decodable.
	samples := readObsFile(t, filepath.Join(dir, info.ID+".obs"))
	if len(samples) != len(resp.Rows) {
		t.Fatalf("obs file has %d samples, live window %d", len(samples), len(resp.Rows))
	}
	for i, s := range samples {
		for j, v := range s.Values {
			if v != resp.Rows[i][j] {
				t.Fatalf("sample %d field %s: file %d, ring %d", i, s.Fields[j], v, resp.Rows[i][j])
			}
		}
	}

	// The telemetry views agree on where the job ended: the final
	// JobInfo.Progress, the last ring row and the last obs-file row on
	// step, evaluations, infeasible count and front size, and /metrics'
	// per-scenario counter on evaluations (this is the manager's only job).
	p := final.Progress
	want := []int64{int64(p.Step), int64(p.Evaluated), int64(p.Infeasible), int64(p.FrontSize)}
	cols := []int{step, evald, fieldIndex(t, resp.Fields, "infeasible"), fieldIndex(t, resp.Fields, "front_size")}
	for view, row := range map[string][]int64{"ring": last, "obs file": samples[len(samples)-1].Values} {
		for k, c := range cols {
			if row[c] != want[k] {
				t.Fatalf("%s ends with %s=%d, JobInfo.Progress says %d", view, resp.Fields[c], row[c], want[k])
			}
		}
	}
	var metricsText strings.Builder
	m.WriteMetrics(&metricsText)
	if line := fmt.Sprintf("wsndse_evals_total{scenario=%q} %d\n", "ecg-ward", p.Evaluated); !strings.Contains(metricsText.String(), line) {
		t.Fatalf("/metrics lacks %q:\n%s", line, metricsText.String())
	}

	// The window parameter trims from the front.
	tail, err := m.JobStats(info.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail.Rows) != 2 || tail.Rows[1][step] != last[step] {
		t.Fatalf("n=2 window: %d rows, last step %v", len(tail.Rows), tail.Rows)
	}

	if _, err := m.JobStats("nope", 0); err != ErrNotFound {
		t.Fatalf("unknown job: %v", err)
	}
}

// TestIslandTelemetry pins the island job schema (island/round/restarts
// columns) and the island round counter.
func TestIslandTelemetry(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, ObsSampleInterval: time.Nanosecond})
	defer m.Close()
	info, err := m.Submit(islandSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, info.ID)
	if final.Status != StatusDone {
		t.Fatalf("island job ended %s: %s", final.Status, final.Error)
	}
	resp, err := m.JobStats(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) == 0 {
		t.Fatal("island job produced no telemetry")
	}
	isl := fieldIndex(t, resp.Fields, "island")
	seen := map[int64]bool{}
	for _, row := range resp.Rows {
		seen[row[isl]] = true
	}
	if !seen[0] && !seen[1] {
		t.Fatalf("no island identity in samples: %v", seen)
	}
	if got := m.met.islandRounds.Load(); got == 0 {
		t.Fatal("island rounds counter never moved")
	}
}

// TestMetricsEndpoint scrapes /metrics after a job and checks the family
// inventory and a few values the job must have moved.
func TestMetricsEndpoint(t *testing.T) {
	c, _ := newTestServer(t, Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	info, err := c.Submit(ctx, smallNSGA2("ecg-ward", 11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, info.ID, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	families := []string{
		"wsndse_jobs_submitted_total",
		"wsndse_jobs_completed_total",
		"wsndse_jobs_queued",
		"wsndse_jobs_running",
		"wsndse_queue_depth",
		"wsndse_job_retries_total",
		"wsndse_evals_total",
		"wsndse_sse_subscribers",
		"wsndse_store_results",
		"wsndse_store_evictions_total",
		"wsndse_jobs_retained",
		"wsndse_jobs_evicted_total",
		"wsndse_island_rounds_total",
		"wsndse_island_restarts_total",
		"wsndse_obs_samples_total",
		"wsndse_obs_bytes_total",
		"wsndse_heap_alloc_bytes",
		"wsndse_goroutines",
		"wsndse_gc_pause_seconds_total",
		"wsndse_uptime_seconds",
	}
	for _, fam := range families {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
	for _, line := range []string{
		"wsndse_jobs_submitted_total 1",
		`wsndse_jobs_completed_total{status="done"} 1`,
		`wsndse_evals_total{scenario="ecg-ward"}`,
		"\nwsndse_jobs_retained 1\n",
		"\nwsndse_jobs_evicted_total 0\n",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("expected %q in /metrics output", line)
		}
	}

	// The stats endpoint serves the live window over HTTP too.
	stats, err := c.JobStats(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.JobID != info.ID || len(stats.Rows) == 0 {
		t.Fatalf("HTTP stats: %+v", stats)
	}
	if _, err := c.JobStats(ctx, "nope", 0); err == nil {
		t.Fatal("unknown job stats should 404")
	}
}

// TestHTTPRequestMethodsBounded: net/http accepts any token as a
// method, and every label pair of wsndse_http_requests_total is a series
// kept for the life of the process. 100 made-up methods must add one
// series, method="OTHER", not 100.
func TestHTTPRequestMethodsBounded(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()
	m.ObserveHTTPRequest(http.MethodGet, http.StatusOK)
	before, _ := m.met.httpRequests.snapshot()
	for i := range 100 {
		m.ObserveHTTPRequest(fmt.Sprintf("M%05d", i), http.StatusMethodNotAllowed)
	}
	if after, _ := m.met.httpRequests.snapshot(); len(after) != len(before)+1 {
		t.Fatalf("100 made-up methods took %d series to %d, want one more", len(before), len(after))
	}
	var text strings.Builder
	m.WriteMetrics(&text)
	if line := `wsndse_http_requests_total{method="OTHER",code="405"} 100`; !strings.Contains(text.String(), line) {
		t.Fatalf("/metrics lacks %q:\n%s", line, text.String())
	}
}

// TestSamplerBoundaryZeroAllocs is the alloc-regression gate on the
// sampler's hot path: a search boundary the rate limiter turns away —
// the overwhelmingly common case, every generation of every job — must
// not allocate. (A recorded sample may allocate modestly; the sample
// interval bounds those to ~4/s per job.)
func TestSamplerBoundaryZeroAllocs(t *testing.T) {
	s := newJobSampler(newMetrics(), new(statsWindow), "gate", "ecg-ward", false, "", time.Hour, func(string, ...any) {})
	front := []dse.Point{{Objs: dse.Objectives{1, 2}}, {Objs: dse.Objectives{2, 1}}}
	st := dse.Stats{Step: 1, TotalSteps: 1 << 30, Front: front}
	s.observeSearch(st) // warm the per-island watermark entry
	allocs := testing.AllocsPerRun(500, func() {
		st.Evaluated++
		st.CacheLookups++
		s.observeSearch(st)
	})
	if allocs != 0 {
		t.Fatalf("rate-limited boundary allocated %.1f times per call, want 0", allocs)
	}
}

// TestSamplerFirstBoundary: a job that writes an obs file samples its
// first boundary as well as its last, even when all twelve fall within
// one sample interval, so its stream decodes as two samples. A ring-only
// job keeps its final sample alone.
func TestSamplerFirstBoundary(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		dir   string
		steps []int64
	}{{dir, []int64{1, 12}}, {"", []int64{12}}} {
		var win statsWindow
		s := newJobSampler(newMetrics(), &win, "j1", "ecg-ward", false, tc.dir, time.Hour, t.Logf)
		for step := 1; step <= 12; step++ {
			s.observeSearch(dse.Stats{Step: step, TotalSteps: 12, Evaluated: 10 * step})
		}
		s.close()
		col := fieldIndex(t, win.fields, "step")
		var steps []int64
		for _, r := range win.rows(0) {
			steps = append(steps, r[col])
		}
		if fmt.Sprint(steps) != fmt.Sprint(tc.steps) || win.total != int64(len(tc.steps)) {
			t.Errorf("obs dir %q: sampled steps %v (%d samples), want %v", tc.dir, steps, win.total, tc.steps)
		}
		if tc.dir == "" {
			continue
		}
		samples := readObsFile(t, filepath.Join(dir, "j1.obs"))
		steps = steps[:0]
		for _, smp := range samples {
			steps = append(steps, smp.Values[col])
		}
		if fmt.Sprint(steps) != fmt.Sprint(tc.steps) {
			t.Errorf("obs file holds steps %v, want %v", steps, tc.steps)
		}
	}
}

// TestSamplerClosedRecordsNothing: once its job has ended, a sampler
// records nothing, so a boundary that arrives after close — from an
// island attempt the stall watchdog abandoned — changes neither the
// window, nor the obs file, nor the evaluation counter.
func TestSamplerClosedRecordsNothing(t *testing.T) {
	dir := t.TempDir()
	var win statsWindow
	s := newJobSampler(newMetrics(), &win, "j1", "ecg-ward", true, dir, time.Nanosecond, t.Logf)
	for step := 1; step <= 3; step++ {
		s.observeIsland(0, dse.Stats{Step: step, TotalSteps: 3, Evaluated: 10 * step})
	}
	s.close()
	state := func() string {
		file, err := os.ReadFile(filepath.Join(dir, "j1.obs"))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(win.rows(0), win.total, s.evalsCell.Load(), file)
	}
	before := state()
	s.observeSearch(dse.Stats{Step: 4, TotalSteps: 4, Evaluated: 50})
	s.observeIsland(1, dse.Stats{Step: 4, TotalSteps: 4, Evaluated: 60})
	if after := state(); after != before {
		t.Fatalf("boundaries after close changed the job's telemetry:\nbefore %s\nafter  %s", before, after)
	}
}

// TestObsCompleteAtTerminal: a job's obs file is complete once the job
// is terminal. 200 small jobs sample every boundary on 2 workers, two
// at a time, and each job's file must hold every sample its window
// counted as soon as Wait returns.
func TestObsCompleteAtTerminal(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Workers: 2, ObsDir: dir, ObsSampleInterval: time.Nanosecond})
	defer m.Close()
	for pair := int64(0); pair < 100; pair++ {
		var ids []string
		for _, seed := range []int64{2*pair + 1, 2*pair + 2} {
			info, err := m.Submit(smallNSGA2("ecg-ward", seed))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, info.ID)
		}
		for _, id := range ids {
			if final := waitDone(t, m, id); final.Status != StatusDone {
				t.Fatalf("job %s ended %s: %s", id, final.Status, final.Error)
			}
			samples := readObsFile(t, filepath.Join(dir, id+".obs"))
			st, err := m.JobStats(id, 0)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(samples)) != st.Samples {
				t.Fatalf("job %s: obs file holds %d samples when the job is done, its window counted %d", id, len(samples), st.Samples)
			}
		}
	}
}

// TestStatusGaugesSettle pins that the lifecycle gauges return to zero
// once every job is terminal — the invariant that catches a missed
// transition edge.
func TestStatusGaugesSettle(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	defer m.Close()
	ids := []string{}
	for seed := int64(0); seed < 3; seed++ {
		info, err := m.Submit(smallNSGA2("ecg-ward", seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		waitDone(t, m, id)
	}
	if q := m.met.jobsQueued.Load(); q != 0 {
		t.Fatalf("jobs_queued gauge %d after all jobs finished", q)
	}
	if r := m.met.jobsRunning.Load(); r != 0 {
		t.Fatalf("jobs_running gauge %d after all jobs finished", r)
	}
	if d := m.met.jobsDone.Load(); d != 3 {
		t.Fatalf("jobs_done %d, want 3", d)
	}
}
