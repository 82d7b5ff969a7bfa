// Command wsn-serve runs the exploration service: a JSON-over-HTTP API
// that schedules design-space exploration jobs over the registered
// scenarios, streams their progress as server-sent events, checkpoints
// long runs, and archives finished Pareto fronts in a versioned store.
//
// Example:
//
//	wsn-serve -addr 127.0.0.1:8080 -jobs 4 \
//	  -checkpoint-dir /var/lib/wsn/ckpt -results-dir /var/lib/wsn/results
//
//	curl -s localhost:8080/v1/scenarios | jq '.items[].name'
//	curl -s -X POST localhost:8080/v1/jobs \
//	  -d '{"scenario":"ecg-ward","algorithm":"nsga2","seed":7,"workers":2,
//	       "nsga2":{"population_size":32,"generations":40}}'
//	curl -N localhost:8080/v1/jobs/j1/events
//	curl -s localhost:8080/v1/jobs/j1/front | jq '.front | length'
//
// -max-results bounds both the result store and the finished job records
// the server keeps in memory: once that many jobs have finished after a
// job, its /v1/jobs/{id} endpoints answer 404 not_found, while its front
// stays at /v1/results/{version} for as long as the store holds it.
//
// With -results-dir the archived fronts survive restarts; a follow-up
// job can warm-start from them:
//
//	curl -s 'localhost:8080/v1/results?scenario=ecg-ward&limit=5' | jq '.items[].version'
//	curl -s -X POST localhost:8080/v1/jobs \
//	  -d '{"scenario":"ecg-ward","algorithm":"nsga2","seed":8,"warm_start":"auto"}'
//
// Island jobs partition one search across supervised islands with
// deterministic migration (same front, more throughput when evaluations
// have real latency); -island-exec points at a wsn-island binary to run
// the rounds in crash-isolated child processes:
//
//	curl -s -X POST localhost:8080/v1/jobs \
//	  -d '{"scenario":"ecg-ward","algorithm":"nsga2","seed":7,"workers":2,
//	       "islands":4,"migration_interval":5,
//	       "nsga2":{"population_size":32,"generations":40}}'
//
// The server instruments itself: GET /metrics serves process-wide
// counters in Prometheus text form, GET /v1/jobs/{id}/stats the live
// telemetry window of one job, and -obs-dir persists each job's full
// series as a binary stream wsn-stats decodes. -log-format json turns
// the server's own lines and the per-request access log into structured
// output:
//
//	wsn-serve -obs-dir /var/lib/wsn/obs -log-format json
//	curl -s localhost:8080/metrics | grep ^wsndse_
//	wsn-stats -follow /var/lib/wsn/obs/j1.obs
//
// SIGINT/SIGTERM drain gracefully (bounded by -shutdown-timeout): new
// submissions get 503, running jobs are cancelled at their next search
// boundary — leaving durable checkpoints behind when -checkpoint-dir is
// set — and in-flight HTTP responses finish before exit. A server
// restarted on the same -checkpoint-dir, after a drain or a crash alike,
// resumes the interrupted work bit-identically when the job's spec is
// resubmitted with {"resume_job": "<old job id>"}; the job keeps its old
// ID, and fresh jobs are numbered after every ID the checkpoint and obs
// directories already hold.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wsndse/internal/cliutil"
	"wsndse/internal/service"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		jobs          = flag.Int("jobs", 2, "concurrent exploration jobs")
		queue         = flag.Int("queue", 64, "queued-job limit (submissions beyond it are rejected)")
		checkpointDir = flag.String("checkpoint-dir", "", "persist job checkpoints to this directory (resume_job reads them)")
		resultsDir    = flag.String("results-dir", "", "persist the result store to this directory (fronts survive restarts and warm-start new jobs)")
		maxResults    = flag.Int("max-results", 0, "bound on the stored fronts (least recently used evicted) and on the finished job records kept in memory (oldest dropped) (0 selects the default 1024)")
		familySpec    = flag.String("family", "", "enable scenario families before serving: a name, comma list, or 'all'")
		readTimeout   = flag.Duration("read-timeout", 30*time.Second, "max duration for reading a full request (0 disables)")
		writeTimeout  = flag.Duration("write-timeout", 60*time.Second, "max duration for writing a response; SSE streams are exempt (0 disables)")
		drainTimeout  = flag.Duration("shutdown-timeout", 30*time.Second, "max duration of the graceful drain on SIGINT/SIGTERM before jobs are abandoned")
		islandExec    = flag.String("island-exec", "", "run island rounds in child worker processes spawned from this wsn-island binary (empty: in-process)")
		islandStall   = flag.Duration("island-stall", 0, "island heartbeat watchdog: retry an island attempt that passes no boundary for this long (0 disables)")
		obsDir        = flag.String("obs-dir", "", "write each job's binary telemetry stream to this directory (<jobID>.obs, decode with wsn-stats)")
		obsInterval   = flag.Duration("obs-interval", 0, "minimum spacing between telemetry samples of one job (0 selects the default 250ms)")
		logFormat     = flag.String("log-format", "text", "log output format: text or json")
	)
	flag.Parse()

	lg, err := newLogger(*logFormat)
	if err != nil {
		fail(err)
	}

	if n, err := cliutil.EnableFamilies(*familySpec); err != nil {
		fail(err)
	} else if n > 0 {
		lg.printf("wsn-serve: enabled %d generated scenarios (-family %s)", n, *familySpec)
	}

	m, err := service.New(service.Config{
		Workers:            *jobs,
		QueueLimit:         *queue,
		CheckpointDir:      *checkpointDir,
		ResultDir:          *resultsDir,
		MaxResults:         *maxResults,
		IslandExec:         *islandExec,
		IslandStallTimeout: *islandStall,
		ObsDir:             *obsDir,
		ObsSampleInterval:  *obsInterval,
		Logf:               lg.printf,
	})
	if err != nil {
		fail(err)
	}
	if *resultsDir != "" {
		lg.printf("wsn-serve: result store at %s holds %d fronts", *resultsDir, m.Store().Len())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	// The resolved address line is load-bearing: with -addr :0 it is how
	// callers (the CI smoke test, scripts) learn the actual port. In text
	// mode it keeps its exact historical shape; in json mode the same
	// message rides the msg field.
	lg.printf("wsn-serve: listening on http://%s", ln.Addr())

	// Real timeouts: a client that stalls mid-headers or never reads its
	// response must not pin a connection forever. The events handler clears
	// its own write deadline, so long-lived SSE streams survive
	// WriteTimeout; everything else is a bounded request/response.
	srv := &http.Server{
		Handler:           accessLog(lg, m, service.NewHandler(m)),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	case <-ctx.Done():
		// Graceful drain: stop taking new jobs (submissions get 503
		// unavailable), cancel running jobs at their next search boundary so
		// their durable checkpoints land, then close the HTTP server once
		// every job has settled — a restarted server picks the work back up
		// via resume_job with a bit-identical continuation.
		lg.printf("wsn-serve: draining (timeout %s)", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := m.Drain(shutdownCtx); err != nil {
			lg.printf("wsn-serve: drain: %v", err)
		}
		if err := srv.Shutdown(shutdownCtx); err != nil {
			lg.printf("wsn-serve: shutdown: %v", err)
		}
		m.Close()
		lg.printf("wsn-serve: drained, bye")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wsn-serve:", err)
	os.Exit(1)
}
