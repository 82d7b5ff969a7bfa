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
// rate-limited telemetry samples: one row into the in-memory ring
// (backing the live stats endpoint) and, when the manager has an obs
// directory, the same row appended to <obs-dir>/<jobID>.obs. All methods
// are safe for concurrent use — island jobs observe from several
// island goroutines at once.
//
// The steady-state cost at a search boundary is one mutex acquisition
// and a clock read when the sample is rate-limited away, and a
// zero-allocation row copy when it is due; the ring reuses its row
// storage once full. File I/O — including the per-job open, which
// costs more than a whole benchmark-sized job on some filesystems —
// happens on a dedicated writer goroutine fed through a bounded
// channel, never on the search's boundary path.
//
// A sampler lives only as long as its job runs: once the worker is done
// with the job, freeze hands the job's record the ring's rows and the
// writer's flush handle, and the rest of the sampler is garbage as soon
// as its writer goroutine exits.
type jobSampler struct {
	met         *metrics
	evalsCell   *atomic.Int64 // metrics evals_total{scenario} cell, resolved once
	jobID       string
	minInterval time.Duration
	logf        func(format string, args ...any)

	mu      sync.Mutex
	path    string // obs file destination; "" keeps telemetry in memory
	win     statsWindow
	head    int // ring row the next sample lands in, the oldest once full
	vals    []int64
	last    time.Time
	start   time.Time
	attempt int64
	warned  bool // one drop warning per job
	closed  bool // ops closed; no more file rows

	// ops feeds filled rows to writeLoop; free recycles their storage
	// back so the steady state allocates nothing. Both are nil until the
	// first recorded sample of a job with an obs directory, and closed.
	// flush is done once writeLoop has closed the file.
	ops   chan []int64
	free  chan []int64
	flush *sync.WaitGroup

	prevEval map[int]int // per-island evaluated watermark for metrics deltas
	nadir    []float64   // running per-objective maxima, the HV reference base
	round    int64       // island jobs: latest coordinator round
	restarts int64       // island jobs: restarts so far
}

// statsWindow is a job's recent telemetry window: up to statsRingCap
// rows of len(fields) values in one flat ring, and the samples recorded
// over the job's life. A finished job's record keeps its window frozen
// in order, in a slab of exactly its rows.
type statsWindow struct {
	fields []string
	ring   []int64
	total  int64
}

// rows returns the most recent min(n, retained) rows, oldest first (n
// <= 0: all of them), as copies safe to hand to the HTTP layer; the
// oldest row is row head of the ring.
func (w *statsWindow) rows(n, head int) [][]int64 {
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
		k := (head + have - n + i) % have * width
		out[i] = slab[i*width : (i+1)*width : (i+1)*width]
		copy(out[i], w.ring[k:])
	}
	return out
}

// newJobSampler builds the sampler for one job. dir == "" keeps the
// telemetry in memory only (the ring still serves the stats endpoint).
// The obs file is created by the writer goroutine, started lazily at
// the first recorded sample, and a file that cannot be created degrades
// to ring-only, logged once: observability must never fail a job.
func newJobSampler(met *metrics, jobID, scenario string, isIsland bool, dir string, interval time.Duration, logf func(string, ...any)) *jobSampler {
	if interval <= 0 {
		interval = DefaultObsSampleInterval
	}
	fields := statsFields
	if isIsland {
		fields = islandStatsFields
	}
	now := time.Now()
	s := &jobSampler{
		met:         met,
		evalsCell:   met.evals.get(fmt.Sprintf("scenario=%q", scenario)),
		jobID:       jobID,
		minInterval: interval,
		logf:        logf,
		win:         statsWindow{fields: fields},
		vals:        make([]int64, len(fields)),
		start:       now,
		// The rate-limit clock starts at job start, not at zero, so a
		// ring-only job shorter than the interval records its final
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

// obsQueueCap bounds how many rows can wait for the writer goroutine.
// It matches the ring so the file can hold everything the live window
// does even if the writer stalls; past that, rows are dropped with one
// log line — file telemetry lags before it blocks a search.
const obsQueueCap = statsRingCap

// writeLoop owns the job's obs file: it opens the file at the first
// row (an open syscall can cost more than a benchmark-sized job, so it
// runs here, overlapped with the search, not on the boundary path),
// appends every row of ops, and closes the file when close() shuts ops.
// Row storage goes back through free for reuse. Open or write failures
// are logged once and degrade the job to ring-only telemetry.
func (s *jobSampler) writeLoop(ops <-chan []int64, free chan<- []int64, flush *sync.WaitGroup) {
	defer flush.Done()
	var (
		f      *os.File
		w      *obs.Writer
		failed bool
	)
	for row := range ops {
		if f == nil && !failed {
			var err error
			if f, w, err = openObs(s.path); err != nil {
				failed = true
				s.logf("service: job %s: obs file: %v (telemetry stays in memory)", s.jobID, err)
			}
		}
		if w != nil {
			before := w.Bytes()
			if err := w.WriteSample(s.win.fields, row); err != nil {
				failed = true
				s.logf("service: job %s: obs write: %v (file abandoned, ring continues)", s.jobID, err)
				_ = f.Close()
				w = nil
			} else {
				s.met.obsBytes.Add(w.Bytes() - before)
			}
		}
		select {
		case free <- row:
		default:
		}
	}
	if f != nil && w != nil {
		_ = f.Close()
	}
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

// record appends one filled row to the ring and hands a copy to the
// writer goroutine. Caller holds mu.
func (s *jobSampler) record(v []int64) {
	r := &s.win
	if len(r.ring) < statsRingCap*len(v) {
		r.ring = append(r.ring, v...)
	} else {
		copy(r.ring[s.head*len(v):], v)
	}
	s.head = (s.head + 1) % statsRingCap
	r.total++
	s.met.obsSamples.Add(1)
	if s.path == "" || s.closed {
		return
	}
	if s.ops == nil {
		s.ops = make(chan []int64, obsQueueCap)
		s.free = make(chan []int64, 4)
		s.flush = new(sync.WaitGroup)
		s.flush.Add(1)
		go s.writeLoop(s.ops, s.free, s.flush)
	}
	var row []int64
	select {
	case row = <-s.free:
	default:
		row = make([]int64, len(v))
	}
	copy(row, v)
	select {
	case s.ops <- row:
	default:
		// Writer is obsQueueCap rows behind; keep the search moving and
		// let the file miss samples the ring still holds.
		if !s.warned {
			s.warned = true
			s.logf("service: job %s: obs writer backlogged, dropping file samples (ring continues)", s.jobID)
		}
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

// window returns the most recent min(n, retained) rows, oldest first,
// as copies safe to hand to the HTTP layer.
func (s *jobSampler) window(n int) (fields []string, rows [][]int64, total int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.win.fields, s.win.rows(n, s.oldest()), s.win.total
}

// oldest returns the ring row of the oldest sample: s.head once the ring
// is full, 0 before, when the ring is [0, head) in order. Caller holds mu.
func (s *jobSampler) oldest() int {
	if len(s.win.ring) < statsRingCap*len(s.win.fields) {
		return 0
	}
	return s.head
}

// close stops accepting file rows and lets the writer goroutine finish
// the queue and close the file in the background. It does not wait —
// the worker moves to its next job while the tail flushes; drain is the
// blocking variant for shutdown and tests. runJob closes the sampler
// when the job's last attempt ends; retire then freezes what the job's
// record keeps of it and drops the rest.
func (s *jobSampler) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ops != nil {
		close(s.ops)
	}
	s.ops, s.free, s.closed = nil, nil, true
}

// drain blocks until the writer goroutine has flushed every queued row
// and closed the obs file. Call after close.
func (s *jobSampler) drain() {
	s.mu.Lock()
	flush := s.flush
	s.mu.Unlock()
	if flush != nil {
		flush.Wait()
	}
}

// freeze returns what a finished job's record keeps of its closed
// sampler: the window in order, in a slab of exactly its rows, and the
// writer's flush handle.
func (s *jobSampler) freeze() (statsWindow, *sync.WaitGroup) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.win
	start := s.oldest() * len(r.fields)
	ordered := make([]int64, 0, len(r.ring))
	ordered = append(append(ordered, r.ring[start:]...), r.ring[:start]...)
	return statsWindow{fields: r.fields, ring: ordered, total: r.total}, s.flush
}

// JobStats returns the job's recent telemetry window (up to n samples;
// n <= 0 selects the whole retained ring): the live sampler's while the
// job runs, the window retire froze once it is over. Jobs that have not
// sampled yet return an empty window, not an error — a queued job
// legitimately has no telemetry.
func (m *Manager) JobStats(id string, n int) (StatsResponse, error) {
	j, ok := m.lookup(id)
	if !ok {
		return StatsResponse{}, ErrNotFound
	}
	j.mu.Lock()
	w := j.stats
	var sampler *jobSampler
	if j.live != nil {
		sampler = j.live.sampler
	}
	j.mu.Unlock()
	if sampler != nil {
		fields, rows, total := sampler.window(n)
		return StatsResponse{JobID: id, Fields: fields, Rows: rows, Samples: total}, nil
	}
	// A frozen window never changes: no lock needed.
	return StatsResponse{JobID: id, Fields: w.fields, Rows: w.rows(n, 0), Samples: w.total}, nil
}
