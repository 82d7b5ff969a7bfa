package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wsndse/internal/service"
)

// env is one benchmark invocation's build products and scratch space.
type env struct {
	root    string // repository root
	work    string // scratch directory under .bench_build, removed by close
	digests map[string]string
	log     io.Writer // human-readable progress and tables
}

// newEnv builds wsn-serve and wsn-experiments from the checkout into a
// fresh scratch directory. Build time is never part of a metric.
func newEnv(root string, log io.Writer) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{root: root, work: work, log: log}
	cmd := exec.Command("go", "build", "-o", e.bin("")+string(filepath.Separator), "./cmd/wsn-serve", "./cmd/wsn-experiments")
	cmd.Dir, cmd.Stdout, cmd.Stderr = root, log, log
	if err := cmd.Run(); err != nil {
		e.close()
		return nil, fmt.Errorf("building the programs: %w", err)
	}
	if e.digests, err = loadDigests(root); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) bin(name string) string { return filepath.Join(e.work, "bin", name) }

func (e *env) close() { os.RemoveAll(e.work) }

// dir returns a fresh scratch directory.
func (e *env) dir(prefix string) (string, error) { return os.MkdirTemp(e.work, prefix+"-") }

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// drive runs operations first, first+1, … on `clients` closed-loop
// goroutines: a client claims the next index only while ctx is live and
// more(claimed) is true, runs it to completion, then claims again.
// Results come back in index order.
func drive[R any](ctx context.Context, clients, first int, more func(claimed int) bool, run func(i int) R) []R {
	var (
		mu      sync.Mutex
		claimed int
		wg      sync.WaitGroup
	)
	done := map[int]R{}
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if ctx.Err() != nil || !more(claimed) {
					mu.Unlock()
					return
				}
				i := first + claimed
				claimed++
				mu.Unlock()
				r := run(i)
				mu.Lock()
				done[i] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out := make([]R, claimed)
	for k := range out {
		out[k] = done[first+k]
	}
	return out
}

// count returns a drive predicate for a fixed number of operations.
func count(n int) func(int) bool { return func(claimed int) bool { return claimed < n } }

// window returns a drive predicate that keeps claiming until d has passed
// and at least floor operations were claimed.
func window(d time.Duration, floor int) func(int) bool {
	deadline := time.Now().Add(d)
	return func(claimed int) bool { return claimed < floor || time.Now().Before(deadline) }
}

// jobRecord is one job driven through the HTTP API.
type jobRecord struct {
	i    int
	spec service.Spec
	// t holds the submit call's start, the submit's return, the terminal
	// status seen over SSE, and the front fetched.
	t          [4]time.Time
	info       service.JobInfo
	front      service.FrontResponse
	hash       [32]byte
	evaluated  int
	frontBytes int64
	err        error
}

// runHTTPJob is the designer's flow: Submit, Wait on the SSE stream,
// fetch the front.
func runHTTPJob(ctx context.Context, c *service.Client, i int, spec service.Spec) jobRecord {
	r := jobRecord{i: i, spec: spec}
	r.t[0] = time.Now()
	info, err := c.Submit(ctx, spec)
	r.t[1] = time.Now()
	if err == nil {
		info, err = c.Wait(ctx, info.ID, nil)
	}
	r.t[2] = time.Now()
	r.info = info
	if err == nil && info.Status != service.StatusDone {
		err = fmt.Errorf("job %s ended %s: %s", info.ID, info.Status, info.Error)
	}
	if err == nil {
		r.front, err = c.Front(context.WithValue(ctx, byteCountKey{}, &r.frontBytes), info.ID)
	}
	r.t[3] = time.Now()
	r.err = err
	if err == nil {
		r.hash = frontHash(r.front)
		r.evaluated = r.front.Evaluated
	}
	return r
}

// checker collects output mismatches; safe for concurrent use.
type checker struct {
	w     *workload
	mu    sync.Mutex
	slots map[int][32]byte
	errs  []string
}

func newChecker(w *workload) *checker { return &checker{w: w, slots: map[int][32]byte{}} }

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// front checks job i's front: its own consistency the first time its spec
// is seen (every time, when fronts depend on the server's history), and
// bit equality with every earlier repeat of the same spec.
func (c *checker) front(i int, spec service.Spec, f service.FrontResponse, h [32]byte) {
	c.mu.Lock()
	first, seen := true, false
	if c.w.slots > 0 {
		var want [32]byte
		want, seen = c.slots[i%c.w.slots]
		first = !seen
		if !seen {
			c.slots[i%c.w.slots] = h
		} else if want != h {
			c.errs = append(c.errs, fmt.Sprintf("job %d: front differs from an earlier run of the same spec", i))
		}
	}
	c.mu.Unlock()
	if first {
		if err := checkFront(spec, f); err != nil {
			c.fail("job %d (%s): %v", i, spec.Scenario, err)
		}
	}
}

// digest compares the chain over the first digestJobs hashes with the
// workload's reference digest, recorded at seed 1. paper-validate's
// passes take no seed, so its reference holds at every seed.
func (c *checker) digest(e *env, seed int64, hashes [][32]byte) {
	if seed != 1 && !c.w.passes {
		return
	}
	if len(hashes) < c.w.digestJobs {
		c.fail("only %d of the %d jobs the digest covers ran", len(hashes), c.w.digestJobs)
		return
	}
	got := chainDigest(hashes[:c.w.digestJobs])
	e.logf("%s: digest %s", c.w.name, got)
	if want := e.digests[c.w.name]; got != want {
		c.fail("digest %s, reference %s (%s)", got, want, digestFile)
	}
}

func (c *checker) ok(e *env) bool {
	for k, msg := range c.errs {
		if k == 10 {
			e.logf("  … %d more", len(c.errs)-k)
			break
		}
		e.logf("  MISMATCH %s", msg)
	}
	return len(c.errs) == 0
}

// logWindow writes a timed window's job times and rates to the log, from
// its operations' [start, end] times and evaluation counts. They are not
// end-to-end metrics: the same commit's job times move by up to 2× with
// the shared machine's load, far past any bound (README.md, "Noise").
// The traced run's http.job_ms and the ladder below it carry job time.
func (e *env) logWindow(w *workload, start, end []time.Time, evals int) {
	lat := make([]float64, len(start))
	first, last := start[0], end[0]
	for k := range start {
		lat[k] = end[k].Sub(start[k]).Seconds()
		if start[k].Before(first) {
			first = start[k]
		}
		if end[k].After(last) {
			last = end[k]
		}
	}
	wall := last.Sub(first).Seconds()
	q := tailPercentile(len(lat))
	e.logf("%s: %d timed operations, %.4g/s, %.4g evals/s, p50 %.4g s, p%g %.4g s", w.name, len(lat),
		float64(len(lat))/wall, float64(evals)/wall, percentile(lat, 0.5), q*100, percentile(lat, q))
}

// runServerWorkload is the untraced run of a server workload: setups
// cold starts, each timed to its first finished job, then the rest of the
// warm-up, then the timed window on the last server.
func (e *env) runServerWorkload(ctx context.Context, w *workload, seed int64, d time.Duration) (*result, error) {
	spec := w.specs(seed)
	chk := newChecker(w)
	var (
		setupS []float64
		srv    *server
		c      *service.Client
		recs   []jobRecord // every job on the measured server, by index
		first  [32]byte
	)
	for k := 0; k < setups; k++ {
		dir, err := e.dir("server")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := startServer(ctx, e.bin("wsn-serve"), dir, serverArgs(w, dir))
		if err != nil {
			return nil, err
		}
		cl := newClient(s.url)
		r := runHTTPJob(ctx, cl, 0, spec(0))
		setupS = append(setupS, time.Since(t0).Seconds())
		if r.err != nil {
			s.stop()
			return nil, fmt.Errorf("set-up %d: %w", k, r.err)
		}
		if k == 0 {
			first = r.hash
		} else if r.hash != first {
			chk.fail("set-up %d: first job's front differs from set-up 0's", k)
		}
		if k < setups-1 {
			s.stop()
			cl.HTTPClient.CloseIdleConnections()
			continue
		}
		srv, c = s, cl
		recs = append(recs, r)
	}
	defer srv.stop()
	defer c.HTTPClient.CloseIdleConnections()
	chk.front(0, recs[0].spec, recs[0].front, recs[0].hash)

	// Peak memory grows with the jobs a server has run, so it is read after
	// a fixed number of timed jobs rather than at the end of the window.
	var (
		completed atomic.Int64
		rss       float64
		rssErr    error
	)
	job := func(i int) jobRecord {
		r := runHTTPJob(ctx, c, i, spec(i))
		if r.err == nil {
			chk.front(i, r.spec, r.front, r.hash)
			r.front = service.FrontResponse{} // checked and hashed; tens of thousands are not kept
		}
		if i >= w.warmup && completed.Add(1) == int64(w.rssJobs) {
			rss, rssErr = srv.peakRSSMB()
		}
		return r
	}
	recs = append(recs, drive(ctx, w.clients, 1, count(w.warmup-1), job)...)
	timed := drive(ctx, w.clients, w.warmup, window(d, max(w.rssJobs, w.digestJobs-w.warmup)), job)
	if rssErr != nil {
		return nil, rssErr
	}
	recs = append(recs, timed...)

	res := &result{}
	hashes := make([][32]byte, len(recs))
	for k := range recs {
		hashes[k] = recs[k].hash
		res.Attempted++
		if recs[k].err != nil {
			res.Failed++
			chk.fail("job %d: %v", recs[k].i, recs[k].err)
		}
	}
	chk.digest(e, seed, hashes)
	starts, ends := make([]time.Time, len(timed)), make([]time.Time, len(timed))
	evals := 0
	for k, r := range timed {
		starts[k], ends[k] = r.t[0], r.t[3]
		evals += r.evaluated
	}
	res.Correct = chk.ok(e)
	e.logWindow(w, starts, ends, evals)
	vals := map[string]float64{"setup_s": median(setupS), "rss_peak_mb": rss}
	if missing := res.fill(endToEnd, vals); missing != nil {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return res, nil
}

// passRecord is one wsn-experiments pass.
type passRecord struct {
	start, end time.Time
	hash       [32]byte
	evals      int
	rssMB      float64
	err        error
}

var (
	frontEvalsRe = regexp.MustCompile(`\((\d+) evaluations\)`)
	sweepEvalsRe = regexp.MustCompile(`evaluated (\d+) \(`)
)

// runPass runs one paper-reproduction pass and measures the child.
func (e *env) runPass(ctx context.Context) passRecord {
	var out, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, e.bin("wsn-experiments"), experimentsArgs...)
	cmd.Dir = e.work
	cmd.Stdout, cmd.Stderr = &out, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r := passRecord{start: time.Now()}
	err := cmd.Run()
	r.end = time.Now()
	if err != nil {
		r.err = fmt.Errorf("wsn-experiments: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
		return r
	}
	r.rssMB = float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024
	r.hash = sha256.Sum256(out.Bytes())
	for _, re := range []*regexp.Regexp{frontEvalsRe, sweepEvalsRe} {
		for _, m := range re.FindAllSubmatch(out.Bytes(), -1) {
			n, _ := strconv.Atoi(string(m[1]))
			r.evals += n
		}
	}
	if n := bytes.Count(out.Bytes(), []byte(" checks passed]")); n != experimentChecks {
		r.err = fmt.Errorf("%d of %d experiments report passing checks", n, experimentChecks)
	}
	return r
}

// runPassWorkload is paper-validate's untraced run: setups cold passes,
// then the timed window of back-to-back passes. The experiments take no
// seed, so every pass must print the reference output byte for byte.
func (e *env) runPassWorkload(ctx context.Context, w *workload, seed int64, d time.Duration) (*result, error) {
	chk := newChecker(w)
	var all []passRecord
	var setupS []float64
	for k := 0; k < setups; k++ {
		r := e.runPass(ctx)
		if r.err != nil {
			return nil, fmt.Errorf("set-up pass %d: %w", k, r.err)
		}
		setupS = append(setupS, r.end.Sub(r.start).Seconds())
		all = append(all, r)
	}
	timed := drive(ctx, 1, setups, window(d, 1), func(int) passRecord { return e.runPass(ctx) })
	all = append(all, timed...)

	res := &result{}
	for k, r := range all {
		res.Attempted++
		if r.err != nil {
			res.Failed++
			chk.fail("pass %d: %v", k, r.err)
		} else if r.hash != all[0].hash {
			chk.fail("pass %d printed different output than pass 0", k)
		}
	}
	chk.digest(e, seed, [][32]byte{all[0].hash})

	starts, ends := make([]time.Time, len(timed)), make([]time.Time, len(timed))
	rss := make([]float64, len(timed))
	var evals int
	for k, r := range timed {
		starts[k], ends[k] = r.start, r.end
		evals += r.evals
		rss[k] = r.rssMB
	}
	res.Correct = chk.ok(e)
	e.logWindow(w, starts, ends, evals)
	vals := map[string]float64{"setup_s": median(setupS), "rss_peak_mb": median(rss)}
	if missing := res.fill(endToEnd, vals); missing != nil {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return res, nil
}
