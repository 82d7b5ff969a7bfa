package service

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wsndse/internal/dse"
	"wsndse/internal/obs"
)

// DefaultObsSampleInterval is the minimum spacing between recorded
// telemetry samples of one job. Search boundaries can fire thousands of
// times per second on small problems; the sampler records at most one
// sample per interval (plus the final boundary, always), which bounds the
// cost of runtime.ReadMemStats and the obs write no matter how fast the
// search runs. Tests and wsn-serve -obs-interval override it.
const DefaultObsSampleInterval = 250 * time.Millisecond

// statsRingCap bounds the in-memory recent window each job keeps for
// GET /v1/jobs/{id}/stats. At the default interval it covers the last
// ~2 minutes of a job's life; older samples live only in the obs file.
const statsRingCap = 512

// The sampler's field schema. Every value is an int64 per the obs
// format; floats ride as fixed-point (the _x1000/_x1e6 suffixes).
// Island jobs append the island-identity columns so one job keeps one
// schema for its whole stream (schema changes are supported by the
// format but thrash the delta bases).
var statsFields = []string{
	"ts_ms",               // sample wall-clock, Unix milliseconds
	"attempt",             // 1-based run attempt
	"step",                // boundaries completed (generation/segment/batch)
	"total_steps",         //
	"evaluated",           // distinct configurations evaluated
	"infeasible",          // of those, constraint violations
	"front_size",          // current Pareto archive size
	"evals_per_sec_x1000", // overall evaluation rate, fixed-point
	"hypervolume_x1e6",    // dominated hypervolume vs the running nadir ref
	"cache_hits",          // memo-cache hits
	"cache_lookups",       // memo-cache lookups (hits + evaluations)
	"heap_alloc_bytes",    // process heap in use
	"goroutines",          // live goroutines
	"gc_pause_total_ms",   // cumulative GC pause, milliseconds
}

var islandStatsFields = append(append([]string(nil), statsFields...),
	"island",   // island index the sample came from
	"round",    // latest migration round the coordinator completed
	"restarts", // island attempts retried so far (job-wide)
)

// StatsResponse is the recent telemetry window of one job, the JSON
// shape of GET /v1/jobs/{id}/stats: a columnar block — one Fields list,
// one row of Values per sample — decoded from the job's in-memory ring
// (the same samples its obs file persists). Samples covers the job's
// whole life; Rows only the retained window.
type StatsResponse struct {
	JobID   string    `json:"job_id"`
	Fields  []string  `json:"fields"`
	Rows    [][]int64 `json:"rows"`
	Samples int64     `json:"samples_total"`
}

// jobSampler turns a job's per-boundary dse.Stats callbacks into
// rate-limited telemetry samples, appended to the job's stats window
// (backing the live stats endpoint) and, when the manager has an obs
// directory, written from there to <obs-dir>/<jobID>.obs. All methods
// are safe for concurrent use — island jobs observe from several
// island goroutines at once.
//
// The steady-state cost at a search boundary is one mutex acquisition
// and a clock read when the sample is rate-limited away, and a
// zero-allocation row copy into the window when it is due; the window
// reuses its row storage once full. File I/O — including the per-job
// open, which costs more than a whole benchmark-sized job on some
// filesystems — happens on a writer goroutine that follows the window
// by sample number, never on the search's boundary path.
//
// A sampler lives only as long as its job runs: close ends it before the
// job's terminal status, once its writer has written every sample and
// closed the file, and the window is all the job's record keeps.
type jobSampler struct {
	met         *metrics
	evalsCell   *atomic.Int64 // metrics evals_total{scenario} cell, resolved once
	jobID       string
	minInterval time.Duration
	logf        func(format string, args ...any)
	win         *statsWindow // the job's, in its record
	path        string       // obs file destination; "" keeps telemetry in memory

	mu      sync.Mutex
	vals    []int64
	last    time.Time
	start   time.Time
	attempt int64
	closed  bool // close has run: no more samples

	// wake tells writeLoop that the window grew, and done is closed once
	// writeLoop has closed the file. Both are nil until the first sample
	// of a job with an obs directory starts the writer.
	wake chan struct{}
	done chan struct{}

	prevEval map[int]int // per-island evaluated watermark for metrics deltas
	nadir    []float64   // running per-objective maxima, the HV reference base
	round    int64       // island jobs: latest coordinator round
	restarts int64       // island jobs: restarts so far
}

// statsWindow is a job's recent telemetry window, in the job's record
// from submission on: up to statsRingCap rows of len(fields) values in
// one flat ring, sample k in row k % statsRingCap, and the samples
// recorded over the job's life. Only the job's sampler adds to it, under
// the sampler's mu too, so the sampler reads total without mu.
type statsWindow struct {
	mu     sync.Mutex
	fields []string
	ring   []int64
	total  int64
}

// add records v as the window's next sample.
func (w *statsWindow) add(v []int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.ring) < statsRingCap*len(v) {
		w.ring = append(w.ring, v...)
	} else {
		copy(w.ring[w.total%statsRingCap*int64(len(v)):], v)
	}
	w.total++
}

// rows returns the most recent min(n, retained) rows, oldest first (n
// <= 0: all of them), as copies safe to hand to the HTTP layer. Caller
// holds mu.
func (w *statsWindow) rows(n int) [][]int64 {
	width := len(w.fields)
	have := 0
	if width > 0 {
		have = len(w.ring) / width
	}
	if n <= 0 || n > have {
		n = have
	}
	out := make([][]int64, n)
	slab := make([]int64, n*width)
	for i := range out {
		k := int((w.total-int64(n-i))%statsRingCap) * width
		out[i] = slab[i*width : (i+1)*width : (i+1)*width]
		copy(out[i], w.ring[k:])
	}
	return out
}

// sample copies sample k into row, or the oldest sample the window still
// holds if k was overwritten, and returns the number of the sample it
// copied; ok is false while the window has no sample k.
func (w *statsWindow) sample(k int64, row []int64) (copied int64, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if k >= w.total {
		return k, false
	}
	k = max(k, w.total-statsRingCap)
	copy(row, w.ring[k%statsRingCap*int64(len(row)):])
	return k, true
}

// trim drops the ring's spare capacity once the job is over.
func (w *statsWindow) trim() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cap(w.ring) > len(w.ring) {
		w.ring = append(make([]int64, 0, len(w.ring)), w.ring...)
	}
}

// newJobSampler builds the sampler for one job, which samples into win.
// dir == "" keeps the telemetry in memory only (the window still serves
// the stats endpoint). The obs file is created by the writer goroutine,
// started lazily at the first recorded sample, and a file that cannot
// be created degrades to window-only, logged once: observability must
// never fail a job.
func newJobSampler(met *metrics, win *statsWindow, jobID, scenario string, isIsland bool, dir string, interval time.Duration, logf func(string, ...any)) *jobSampler {
	if interval <= 0 {
		interval = DefaultObsSampleInterval
	}
	fields := statsFields
	if isIsland {
		fields = islandStatsFields
	}
	win.mu.Lock()
	win.fields = fields
	win.mu.Unlock()
	now := time.Now()
	s := &jobSampler{
		met:         met,
		evalsCell:   met.evals.get(fmt.Sprintf("scenario=%q", scenario)),
		jobID:       jobID,
		minInterval: interval,
		logf:        logf,
		win:         win,
		vals:        make([]int64, len(fields)),
		start:       now,
		// The rate-limit clock starts at job start, not at zero, so a
		// window-only job shorter than the interval records its final
		// boundary alone; a job with an obs file records its first
		// boundary regardless (observe).
		last:     now,
		attempt:  1,
		prevEval: make(map[int]int),
	}
	if dir != "" {
		s.path = filepath.Join(dir, jobID+".obs")
	}
	return s
}

// writeLoop owns the job's obs file. It starts at the job's first
// sample and opens the file there (an open syscall can cost more than a
// benchmark-sized job, so it runs here, overlapped with the search, not
// on the boundary path), writes the window's samples to it, and closes
// it. Open or write failures are logged once and end the file; the
// window continues.
func (s *jobSampler) writeLoop(wake <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	f, w, err := openObs(s.path)
	if err != nil {
		s.logf("service: job %s: obs file: %v (telemetry stays in memory)", s.jobID, err)
		return
	}
	if err := s.writeSamples(wake, w); err != nil {
		s.logf("service: job %s: obs write: %v (file abandoned, ring continues)", s.jobID, err)
	}
	if err := f.Close(); err != nil {
		s.logf("service: job %s: obs file: %v", s.jobID, err)
	}
}

// writeSamples follows the window by sample number, woken by wake, and
// writes each sample to w in turn, until close has shut wake and the
// last sample is written. A writer more than statsRingCap samples behind
// skips the ones the window overwrote, logged once.
func (s *jobSampler) writeSamples(wake <-chan struct{}, w *obs.Writer) error {
	row := make([]int64, len(s.win.fields))
	var next int64
	skipped := false
	for open := true; open; {
		_, open = <-wake
		for {
			k, ok := s.win.sample(next, row)
			if !ok {
				break
			}
			if k > next && !skipped {
				skipped = true
				s.logf("service: job %s: obs writer backlogged, dropping file samples (ring continues)", s.jobID)
			}
			next = k + 1
			before := w.Bytes()
			if err := w.WriteSample(s.win.fields, row); err != nil {
				return err
			}
			s.met.obsBytes.Add(w.Bytes() - before)
		}
	}
	return nil
}

// openObs opens a job's obs stream for appending. A job continued after a
// restart (resume_job) finds its predecessor's stream there and extends
// it instead of starting a second one behind it. A tail the predecessor's
// crash tore is cut off first: readers stop at the first torn record, so
// every sample appended behind it would be invisible. A file that is not
// an obs stream at all (obs.ErrBadMagic) is left alone and fails the open.
func openObs(path string) (*os.File, *obs.Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	d := obs.NewReader(f)
	for {
		_, ok, err := d.Next()
		if err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		if !ok {
			break
		}
	}
	if d.Truncated() {
		if err := f.Truncate(d.Intact()); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
	}
	if d.Intact() > 0 {
		return f, obs.NewAppendWriter(f), nil
	}
	return f, obs.NewWriter(f), nil
}

// setAttempt records which run attempt subsequent samples belong to.
func (s *jobSampler) setAttempt(n int) {
	s.mu.Lock()
	s.attempt = int64(n)
	s.mu.Unlock()
}

// setIsland records the island coordinator's latest round/restart state,
// stamped into subsequent samples.
func (s *jobSampler) setIsland(round, restarts int) {
	s.mu.Lock()
	if int64(round) > s.round {
		s.round = int64(round)
	}
	s.restarts = int64(restarts)
	s.mu.Unlock()
}

// observeSearch is the StatsSink of a single-search job.
func (s *jobSampler) observeSearch(st dse.Stats) { s.observe(-1, st) }

// observeIsland is the per-island StatsSink of an island job.
func (s *jobSampler) observeIsland(island int, st dse.Stats) { s.observe(island, st) }

func (s *jobSampler) observe(island int, st dse.Stats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}

	// Per-scenario evaluation totals advance on every boundary, sampled
	// or not: the watermark delta keeps the counter monotone across
	// resumed attempts (counts carried by a snapshot) and resets cleanly
	// when a checkpoint-less retry restarts the count from zero.
	if prev := s.prevEval[island]; st.Evaluated > prev {
		s.evalsCell.Add(int64(st.Evaluated - prev))
	}
	s.prevEval[island] = st.Evaluated

	now := time.Now()
	final := st.TotalSteps > 0 && st.Step >= st.TotalSteps
	// A job that writes an obs file records its first boundary too, so
	// its stream holds the start of the search beside its end even when
	// every boundary falls within one interval.
	first := s.win.total == 0 && s.path != ""
	if !final && !first && now.Sub(s.last) < s.minInterval {
		return
	}
	s.last = now

	hv := s.hypervolume(st.Front)
	heap, gcPauseNs := processMemStats(now)

	elapsed := now.Sub(s.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(st.Evaluated) / elapsed
	}

	v := s.vals
	v[0] = now.UnixMilli()
	v[1] = s.attempt
	v[2] = int64(st.Step)
	v[3] = int64(st.TotalSteps)
	v[4] = int64(st.Evaluated)
	v[5] = int64(st.Infeasible)
	v[6] = int64(len(st.Front))
	v[7] = int64(rate * 1000)
	v[8] = int64(hv * 1e6)
	v[9] = st.CacheHits
	v[10] = st.CacheLookups
	v[11] = heap
	v[12] = int64(runtime.NumGoroutine())
	v[13] = gcPauseNs / 1e6
	if len(v) > len(statsFields) {
		v[14] = int64(island)
		v[15] = s.round
		v[16] = s.restarts
	}
	s.record(v)
}

// memStatsCache amortizes runtime.ReadMemStats — a stop-the-world-ish
// call too expensive to run per job on sub-millisecond jobs — across
// every sampler in the process: samples within the TTL reuse the last
// reading. Heap and GC-pause stats are process-wide anyway, so sharing
// loses nothing but sub-100ms staleness.
var memStatsCache struct {
	mu      sync.Mutex
	at      time.Time
	heap    int64
	pauseNs int64
}

const memStatsTTL = 100 * time.Millisecond

func processMemStats(now time.Time) (heapAlloc, gcPauseNs int64) {
	c := &memStatsCache
	c.mu.Lock()
	defer c.mu.Unlock()
	if now.Sub(c.at) >= memStatsTTL {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.at, c.heap, c.pauseNs = now, int64(ms.HeapAlloc), int64(ms.PauseTotalNs)
	}
	return c.heap, c.pauseNs
}

// record appends one filled row to the window and wakes the writer,
// starting it at the job's first sample. Caller holds mu.
func (s *jobSampler) record(v []int64) {
	s.win.add(v)
	s.met.obsSamples.Add(1)
	if s.path == "" {
		return
	}
	if s.wake == nil {
		s.wake, s.done = make(chan struct{}, 1), make(chan struct{})
		go s.writeLoop(s.wake, s.done)
	}
	select {
	case s.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// hypervolume is the telemetry-grade dominated hypervolume: the
// reference point is the running nadir (per-objective maximum seen so
// far this job) scaled by 1.1, so the series is comparable within a job
// as long as the nadir is stable, and trend-grade across nadir growth.
// Caller holds mu; the front is the search's shared storage, read only.
func (s *jobSampler) hypervolume(front []dse.Point) float64 {
	if len(front) == 0 {
		return 0
	}
	nobj := len(front[0].Objs)
	if nobj < 2 || nobj > 3 {
		return 0 // dse.Hypervolume covers the paper's 2-3 objective plots
	}
	if len(s.nadir) != nobj {
		s.nadir = make([]float64, nobj)
	}
	for _, p := range front {
		for i, o := range p.Objs {
			if o > s.nadir[i] {
				s.nadir[i] = o
			}
		}
	}
	ref := make(dse.Objectives, nobj)
	for i, n := range s.nadir {
		ref[i] = n*1.1 + 1e-9
	}
	return dse.Hypervolume(front, ref)
}

// close ends the job's telemetry, before its terminal status: the
// sampler records nothing more, not even from an island attempt the
// stall watchdog abandoned, and close returns once the writer has
// written every sample and closed the obs file.
func (s *jobSampler) close() {
	s.mu.Lock()
	s.closed = true
	wake, done := s.wake, s.done
	s.mu.Unlock()
	if wake != nil {
		close(wake)
		<-done
	}
}

// JobStats returns the job's recent telemetry window (up to n samples;
// n <= 0 selects the whole retained ring), the same window whether the
// job runs or has ended. A job that has not sampled yet returns an empty
// window, not an error — a queued job legitimately has no telemetry.
func (m *Manager) JobStats(id string, n int) (StatsResponse, error) {
	j, ok := m.lookup(id)
	if !ok {
		return StatsResponse{}, ErrNotFound
	}
	w := &j.stats
	w.mu.Lock()
	defer w.mu.Unlock()
	return StatsResponse{JobID: id, Fields: w.fields, Rows: w.rows(n), Samples: w.total}, nil
}
