package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"wsndse/internal/scenario"
)

// Machine-readable error codes of the v1 API, carried in every error
// envelope ({"error": {"code": "...", "message": "..."}}) so clients
// branch on the code instead of parsing prose. Client surfaces them as
// *APIError.
const (
	// CodeInvalidSpec: the submitted job spec failed validation (unknown
	// scenario/algorithm, out-of-domain config, unknown JSON field, ...).
	CodeInvalidSpec = "invalid_spec"
	// CodeInvalidArgument: a malformed query parameter or path segment
	// (non-numeric limit, negative offset, non-numeric result version).
	CodeInvalidArgument = "invalid_argument"
	// CodeNotFound: no such job, result version, or resource.
	CodeNotFound = "not_found"
	// CodeConflict: the resource exists but is not in a state that can
	// serve the request (front requested before the job finished).
	CodeConflict = "conflict"
	// CodeQueueFull: the job queue is at its bound; retry later.
	CodeQueueFull = "queue_full"
	// CodeBodyTooLarge: the request body exceeded MaxBodyBytes.
	CodeBodyTooLarge = "body_too_large"
	// CodeUnavailable: the manager is draining (graceful shutdown) or
	// already closed.
	CodeUnavailable = "unavailable"
	// CodeInternal: unexpected server-side failure.
	CodeInternal = "internal"
)

// Pagination bounds of the list endpoints (/v1/jobs, /v1/scenarios,
// /v1/results): an omitted limit serves DefaultPageLimit items, and a
// requested limit is clamped to MaxPageLimit — a list endpoint must not
// be a memory-amplification vector no matter what the client asks for.
const (
	DefaultPageLimit = 100
	MaxPageLimit     = 500
)

// MaxBodyBytes caps request bodies (POST /v1/jobs). A spec is a few
// hundred bytes of scalars and small algorithm configs, so 64 KiB is
// generous headroom while keeping a hostile client from buffering
// megabytes into the decoder. Larger bodies get 413 body_too_large.
const MaxBodyBytes = 64 << 10

// Page is the list envelope shared by every v1 collection endpoint: the
// requested window plus the total match count, so clients can page
// without a separate count call.
type Page[T any] struct {
	Items  []T `json:"items"`
	Total  int `json:"total"`
	Limit  int `json:"limit"`
	Offset int `json:"offset"`
}

// pageOf windows items by limit/offset into the envelope.
func pageOf[T any](items []T, limit, offset int) Page[T] {
	p := Page[T]{Items: []T{}, Total: len(items), Limit: limit, Offset: offset}
	if offset < len(items) {
		end := offset + limit
		if end > len(items) {
			end = len(items)
		}
		p.Items = items[offset:end]
	}
	return p
}

// parsePageParams reads ?limit=&offset= with the documented defaulting
// and clamping. Malformed or negative values are invalid_argument — a
// client that mistypes pagination should find out, not silently get
// page one.
func parsePageParams(r *http.Request) (limit, offset int, err error) {
	limit = DefaultPageLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit < 1 {
			return 0, 0, fmt.Errorf("service: limit %q is not a positive integer", raw)
		}
		if limit > MaxPageLimit {
			limit = MaxPageLimit
		}
	}
	if raw := r.URL.Query().Get("offset"); raw != "" {
		offset, err = strconv.Atoi(raw)
		if err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("service: offset %q is not a non-negative integer", raw)
		}
	}
	return limit, offset, nil
}

// ScenarioInfo is one row of GET /v1/scenarios: enough for a client to
// pick a workload and size its exploration budget.
type ScenarioInfo struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	Stress      string  `json:"stress"`
	Nodes       int     `json:"nodes"`
	Genes       int     `json:"genes"`
	SpaceSize   float64 `json:"space_size"`
	Objectives  int     `json:"objectives"`
}

// decodeSpec reads a POST /v1/jobs body of at most MaxBodyBytes. Unknown
// fields fail fast: a typo like "algoritm" must be a 400, not a silently
// defaulted (and differently explored) job.
func decodeSpec(w http.ResponseWriter, body io.ReadCloser) (spec Spec, err error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	err = dec.Decode(&spec)
	return spec, err
}

// NewHandler exposes the Manager as a JSON HTTP API:
//
//	POST   /v1/jobs                  submit a Spec             → 201 JobInfo
//	GET    /v1/jobs                  list jobs                 → 200 Page[JobInfo]      (?limit=&offset=)
//	GET    /v1/jobs/{id}             job state                 → 200 JobInfo
//	DELETE /v1/jobs/{id}             cancel (cooperative)      → 202 JobInfo
//	GET    /v1/jobs/{id}/front       Pareto front              → 200 FrontResponse (409 until available)
//	GET    /v1/jobs/{id}/events      live progress stream      → 200 text/event-stream (SSE)
//	GET    /v1/jobs/{id}/stats       recent telemetry window   → 200 StatsResponse       (?n=)
//	GET    /v1/scenarios             registered workloads      → 200 Page[ScenarioInfo] (?limit=&offset=)
//	GET    /v1/results               result store query        → 200 Page[StoredResult]
//	                                 (?key=&fingerprint=&scenario=&family=&algorithm=&limit=&offset=)
//	GET    /v1/results/{version}     one stored result         → 200 StoredResult ({version} is "17" or "v17")
//	GET    /healthz                  liveness                  → 200
//	GET    /metrics                  Prometheus text metrics   → 200 text/plain
//
// List endpoints return the Page envelope {"items", "total", "limit",
// "offset"}; results come back newest-first. Errors are
// {"error": {"code": "...", "message": "..."}} with the conventional
// status codes: 400 invalid_spec/invalid_argument, 404 not_found,
// 409 conflict, 413 body_too_large, 429 queue_full, 503 unavailable,
// 500 internal.
//
// The /v1/jobs endpoints serve the records the Manager retains: queued
// and running jobs and the last Config.MaxResults finished ones. An
// older job's ID answers 404 not_found like an unknown one, and GET
// /v1/jobs neither lists nor counts it; its front stays at
// /v1/results/{version} while the store holds it.
//
// The events stream delivers every status event, plus the latest progress
// event and the latest island event of each kind: a client that falls
// behind skips only superseded events (see Manager.Events). It honors the
// SSE Last-Event-ID request header: each event's id is its per-job
// sequence number, and a reconnect carrying the last id seen resumes
// after it instead of replaying history. Request bodies are capped at
// MaxBodyBytes.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, err := decodeSpec(w, r.Body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
					fmt.Errorf("service: request body exceeds %d bytes", tooBig.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, CodeInvalidSpec, fmt.Errorf("decoding spec: %w", err))
			return
		}
		info, err := m.Submit(spec)
		if err != nil {
			switch {
			case errors.Is(err, ErrQueueFull):
				writeError(w, http.StatusTooManyRequests, CodeQueueFull, err)
			case errors.Is(err, ErrClosed), errors.Is(err, ErrDraining):
				writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err)
			default:
				writeError(w, http.StatusBadRequest, CodeInvalidSpec, err)
			}
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		limit, offset, err := parsePageParams(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument, err)
			return
		}
		writeJSON(w, http.StatusOK, pageOf(m.Jobs(), limit, offset))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, CodeNotFound, ErrNotFound)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := m.Cancel(id); err != nil {
			writeError(w, http.StatusNotFound, CodeNotFound, err)
			return
		}
		info, _ := m.Get(id)
		writeJSON(w, http.StatusAccepted, info)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/front", func(w http.ResponseWriter, r *http.Request) {
		front, err := m.Front(r.PathValue("id"))
		switch {
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, CodeNotFound, err)
		case errors.Is(err, ErrNotFinished):
			writeError(w, http.StatusConflict, CodeConflict, err)
		case err != nil:
			writeError(w, http.StatusInternalServerError, CodeInternal, err)
		default:
			writeJSON(w, http.StatusOK, front)
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(m, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stats", func(w http.ResponseWriter, r *http.Request) {
		n := 0 // whole retained window
		if raw := r.URL.Query().Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 1 {
				writeError(w, http.StatusBadRequest, CodeInvalidArgument,
					fmt.Errorf("service: n %q is not a positive integer", raw))
				return
			}
			n = v
		}
		resp, err := m.JobStats(r.PathValue("id"), n)
		if err != nil {
			writeError(w, http.StatusNotFound, CodeNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		limit, offset, err := parsePageParams(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument, err)
			return
		}
		writeJSON(w, http.StatusOK, pageOf(listScenarios(), limit, offset))
	})
	mux.HandleFunc("GET /v1/results", func(w http.ResponseWriter, r *http.Request) {
		limit, offset, err := parsePageParams(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument, err)
			return
		}
		qp := r.URL.Query()
		items, total := m.Store().Query(ResultQuery{
			Key:         qp.Get("key"),
			Fingerprint: qp.Get("fingerprint"),
			Scenario:    qp.Get("scenario"),
			Family:      qp.Get("family"),
			Algorithm:   qp.Get("algorithm"),
			Limit:       limit,
			Offset:      offset,
		})
		if items == nil {
			items = []StoredResult{}
		}
		writeJSON(w, http.StatusOK, Page[StoredResult]{Items: items, Total: total, Limit: limit, Offset: offset})
	})
	mux.HandleFunc("GET /v1/results/{version}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := warmStartVersion(r.PathValue("version"))
		if !ok {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument,
				fmt.Errorf("service: result version %q is not a positive integer", r.PathValue("version")))
			return
		}
		res, ok := m.Store().Get(v)
		if !ok {
			writeError(w, http.StatusNotFound, CodeNotFound,
				fmt.Errorf("service: no result at version %d (never stored, or evicted)", v))
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WriteMetrics(w)
	})
	return mux
}

// serveEvents streams the job's events (Manager.Events) as server-sent
// events until the job terminates or the client disconnects. Each event
// is `id: <seq>\nevent: <type>\ndata: <json>`; the id line makes the Seq
// the SSE event id, so a reconnecting client's Last-Event-ID header
// resumes the stream after the last event it saw.
func serveEvents(m *Manager, w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, CodeInternal, fmt.Errorf("service: response writer cannot stream"))
		return
	}
	afterSeq := 0
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument,
				fmt.Errorf("service: Last-Event-ID %q is not a non-negative integer", raw))
			return
		}
		afterSeq = n
	}
	id := r.PathValue("id")
	if _, ok := m.lookup(id); !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, ErrNotFound)
		return
	}
	m.met.sseSubscribers.Add(1)
	defer m.met.sseSubscribers.Add(-1)
	// A long-lived stream must outlive the server's WriteTimeout (which
	// exists to bound ordinary request handlers): clear the connection's
	// write deadline for this response only. Failure is fine — a server
	// without write timeouts has nothing to clear.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// The stream ends after the terminal status event, when a write fails,
	// or when the client goes away; there is no one left to tell why.
	_ = m.Events(r.Context(), id, afterSeq, func(e Event) bool {
		data, err := json.Marshal(e)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	})
}

// listScenarios builds the scenario listing from the rows the registry
// computed when each scenario registered.
func listScenarios() []ScenarioInfo {
	rows := scenario.Summaries()
	out := make([]ScenarioInfo, len(rows))
	for i, r := range rows {
		out[i] = ScenarioInfo{
			Name:        r.Name,
			Description: r.Description,
			Stress:      r.Stress,
			Nodes:       r.Nodes,
			Genes:       r.Genes,
			SpaceSize:   r.SpaceSize,
			Objectives:  3,
		}
	}
	return out
}

// writeJSON writes v as compact JSON on one line. Indenting a 1,033-point
// ward front would triple its bytes and its encode time.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorEnvelope is the wire form of every v1 error response.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeError emits the structured error envelope. This is the v1 wire
// revision that replaced the flat {"error": "..."} shape: the code is
// the stable contract, the message is for humans.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorEnvelope{Error: errorBody{Code: code, Message: err.Error()}})
}
