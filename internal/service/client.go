package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is the Go wrapper around the wsn-serve HTTP API. The zero
// HTTPClient falls back to http.DefaultClient; BaseURL is the server root
// (e.g. "http://127.0.0.1:8080").
//
// The client rides out transient server trouble on its own: idempotent
// calls (every GET and DELETE — cancel is idempotent by design) retry
// with capped exponential backoff on transport errors and 502/503/504,
// and Events/Wait transparently reconnect a dropped SSE stream, resuming
// via Last-Event-ID. Submit is never retried: the caller cannot know
// whether a dead connection's job was enqueued.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
	// MaxRetries bounds the retries after a failed idempotent call (and
	// the consecutive no-progress reconnects of an event stream). 0
	// selects DefaultClientRetries; negative disables retrying.
	MaxRetries int
	// RetryBaseDelay/RetryMaxDelay shape the backoff between retries
	// (zero selects DefaultClientRetryBase/DefaultClientRetryMax).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
}

// Client retry defaults: up to 3 retries, backoff 250ms → 5s. Tuned for
// "the server is restarting", not "the server is gone".
const (
	DefaultClientRetries   = 3
	DefaultClientRetryBase = 250 * time.Millisecond
	DefaultClientRetryMax  = 5 * time.Second
)

// NewClient returns a client for the given server root.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) retries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return DefaultClientRetries
	}
	return c.MaxRetries
}

// backoff computes the delay before retry number `retry` (1-based),
// reusing the manager's capped-exponential-with-jitter shape.
func (c *Client) backoff(retry int) time.Duration {
	base, max := c.RetryBaseDelay, c.RetryMaxDelay
	if base <= 0 {
		base = DefaultClientRetryBase
	}
	if max <= 0 {
		max = DefaultClientRetryMax
	}
	return retryDelay(retry, base, max)
}

// sleepContext waits out a backoff delay, returning early with ctx's
// error the moment the context is cancelled. Centralizing the select
// keeps every retry loop responsive to cancellation: a caller that gives
// up mid-backoff gets control back within the tick, not after it.
func sleepContext(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryableError reports whether err is worth retrying an idempotent
// call for: transport-level failures (connection refused/reset — the
// restart window) and the gateway-flavored 5xx statuses. Every other
// *APIError is a definitive answer from a live server.
func retryableError(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.StatusCode {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return true
}

// APIError is a non-2xx response from the server, carrying the
// machine-readable code from the v1 error envelope. Branch on Code (the
// Code* constants) with errors.As:
//
//	var apiErr *service.APIError
//	if errors.As(err, &apiErr) && apiErr.Code == service.CodeQueueFull { backoff() }
type APIError struct {
	// StatusCode is the HTTP status of the response.
	StatusCode int
	// Code is the machine-readable error code (CodeNotFound, ...); empty
	// when the response carried no error envelope.
	Code string
	// Message is the human-readable explanation.
	Message string
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("service: %s: %s (HTTP %d)", e.Code, e.Message, e.StatusCode)
	}
	if e.Message != "" {
		return fmt.Sprintf("service: %s (HTTP %d)", e.Message, e.StatusCode)
	}
	return fmt.Sprintf("service: HTTP %d", e.StatusCode)
}

// decodeAPIError turns a non-2xx response body into an *APIError. A body
// that is not the structured envelope (a proxy's error page, say) leaves
// only the status code.
func decodeAPIError(statusCode int, body io.Reader) *APIError {
	ae := &APIError{StatusCode: statusCode}
	var wire errorEnvelope
	if json.NewDecoder(body).Decode(&wire) == nil {
		ae.Code, ae.Message = wire.Error.Code, wire.Error.Message
	}
	return ae
}

// do issues the request and decodes the JSON response into out (skipped
// when out is nil). Non-2xx responses come back as a wrapped *APIError
// (reach it with errors.As). Requests without a body — idempotent by
// construction in this API — are retried on transient failures; a POST
// is attempted exactly once.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		payload = data
	}
	retries := 0
	if in == nil {
		retries = c.retries()
	}
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, payload, out)
		if err == nil {
			return nil
		}
		if attempt >= retries || !retryableError(err) || ctx.Err() != nil {
			return err
		}
		if sleepContext(ctx, c.backoff(attempt+1)) != nil {
			return err
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, out any) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %w", method, path, decodeAPIError(resp.StatusCode, resp.Body))
	}
	if out == nil {
		return nil
	}
	// Buffer before unmarshalling so a connection cut mid-body surfaces as
	// a retryable read error, never as out half-filled by a partial decode.
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// pageParams encodes limit/offset into q (omitting zero values).
func pageParams(q url.Values, limit, offset int) {
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if offset > 0 {
		q.Set("offset", strconv.Itoa(offset))
	}
}

// collectPages drains a paged endpoint: fetch is called with a growing
// offset until the reported total is reached.
func collectPages[T any](fetch func(limit, offset int) (Page[T], error)) ([]T, error) {
	var all []T
	offset := 0
	for {
		page, err := fetch(MaxPageLimit, offset)
		if err != nil {
			return nil, err
		}
		all = append(all, page.Items...)
		offset += len(page.Items)
		if offset >= page.Total || len(page.Items) == 0 {
			return all, nil
		}
	}
}

// Submit posts a job spec and returns the queued job.
func (c *Client) Submit(ctx context.Context, spec Spec) (JobInfo, error) {
	var info JobInfo
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &info)
	return info, err
}

// Job fetches one job's state.
func (c *Client) Job(ctx context.Context, id string) (JobInfo, error) {
	var info JobInfo
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &info)
	return info, err
}

// JobsPage fetches one window of the job list (limit <= 0 selects the
// server default).
func (c *Client) JobsPage(ctx context.Context, limit, offset int) (Page[JobInfo], error) {
	q := url.Values{}
	pageParams(q, limit, offset)
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page Page[JobInfo]
	err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// Jobs lists every job the server retains (see Config.MaxResults),
// draining pagination.
func (c *Client) Jobs(ctx context.Context) ([]JobInfo, error) {
	return collectPages(func(limit, offset int) (Page[JobInfo], error) {
		return c.JobsPage(ctx, limit, offset)
	})
}

// Cancel requests cooperative cancellation.
func (c *Client) Cancel(ctx context.Context, id string) (JobInfo, error) {
	var info JobInfo
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &info)
	return info, err
}

// Front fetches the job's Pareto front (available once the job is done,
// or cancelled with a partial front).
func (c *Client) Front(ctx context.Context, id string) (FrontResponse, error) {
	var front FrontResponse
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/front", nil, &front)
	return front, err
}

// JobStats fetches the job's recent telemetry window (n <= 0: the whole
// retained window).
func (c *Client) JobStats(ctx context.Context, id string, n int) (StatsResponse, error) {
	path := "/v1/jobs/" + url.PathEscape(id) + "/stats"
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	var resp StatsResponse
	err := c.do(ctx, http.MethodGet, path, nil, &resp)
	return resp, err
}

// ScenariosPage fetches one window of the scenario list.
func (c *Client) ScenariosPage(ctx context.Context, limit, offset int) (Page[ScenarioInfo], error) {
	q := url.Values{}
	pageParams(q, limit, offset)
	path := "/v1/scenarios"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page Page[ScenarioInfo]
	err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// Scenarios lists the registered workloads, draining pagination.
func (c *Client) Scenarios(ctx context.Context) ([]ScenarioInfo, error) {
	return collectPages(func(limit, offset int) (Page[ScenarioInfo], error) {
		return c.ScenariosPage(ctx, limit, offset)
	})
}

// Result fetches the stored result at an exact version
// (GET /v1/results/{version}).
func (c *Client) Result(ctx context.Context, version int) (StoredResult, error) {
	var res StoredResult
	err := c.do(ctx, http.MethodGet, "/v1/results/"+strconv.Itoa(version), nil, &res)
	return res, err
}

// ResultsPage queries the result store (GET /v1/results): zero-valued
// query fields match everything, matches come back newest-first, and
// q.Limit <= 0 selects the server's default page size.
func (c *Client) ResultsPage(ctx context.Context, rq ResultQuery) (Page[StoredResult], error) {
	q := url.Values{}
	if rq.Key != "" {
		q.Set("key", rq.Key)
	}
	if rq.Fingerprint != "" {
		q.Set("fingerprint", rq.Fingerprint)
	}
	if rq.Scenario != "" {
		q.Set("scenario", rq.Scenario)
	}
	if rq.Family != "" {
		q.Set("family", rq.Family)
	}
	if rq.Algorithm != "" {
		q.Set("algorithm", rq.Algorithm)
	}
	pageParams(q, rq.Limit, rq.Offset)
	path := "/v1/results"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page Page[StoredResult]
	err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// LookupResult implements ResultLookup over the HTTP API, so warm-start
// resolution (wsn-explore -warm-start <url>) runs against a remote
// server exactly as it does against a local store directory.
func (c *Client) LookupResult(version int) (StoredResult, bool) {
	res, err := c.Result(context.Background(), version)
	if err != nil {
		return StoredResult{}, false
	}
	return res, true
}

// QueryResults implements ResultLookup over the HTTP API.
func (c *Client) QueryResults(q ResultQuery) ([]StoredResult, error) {
	page, err := c.ResultsPage(context.Background(), q)
	if err != nil {
		return nil, err
	}
	return page.Items, nil
}

// Events consumes the job's SSE stream, invoking fn for each event until
// fn returns false, the job reaches a terminal state, or ctx expires. A
// nil error means the stream ended normally.
//
// Dropped connections are survived, not surfaced: Events reconnects with
// backoff, sends the last sequence number seen as Last-Event-ID so the
// server resumes instead of replaying, and suppresses any duplicate
// events a replaying server sends anyway — fn observes each Seq at most
// once, strictly increasing. Reconnects that make forward progress reset
// the retry budget; MaxRetries consecutive fruitless reconnects (or a
// definitive API error such as not_found) end the stream with an error.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) bool) error {
	var (
		lastSeq  int
		terminal bool
		stopped  bool
	)
	handle := func(e Event) bool {
		if e.Seq <= lastSeq {
			return true // duplicate from a replaying reconnect
		}
		lastSeq = e.Seq
		if e.Type == "status" && e.Status.Terminal() {
			terminal = true
		}
		if !fn(e) {
			stopped = true
			return false
		}
		return true
	}
	fruitless := 0
	for {
		before := lastSeq
		err := c.streamEvents(ctx, id, lastSeq, handle)
		switch {
		case stopped:
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		}
		var ae *APIError
		if errors.As(err, &ae) && !retryableError(err) {
			return err // a live server said no (not_found, ...): reconnecting won't help
		}
		if err == nil && terminal {
			return nil // clean end after the terminal status event: the job's story is over
		}
		// The stream died mid-job (connection cut, server restart) or ended
		// without a terminal event. Reconnect — with a fresh retry budget if
		// this attempt delivered anything new.
		if lastSeq > before {
			fruitless = 0
			continue
		}
		fruitless++
		if fruitless > c.retries() {
			if err != nil {
				return err
			}
			return fmt.Errorf("service: event stream for job %s ended before the job finished", id)
		}
		if err := sleepContext(ctx, c.backoff(fruitless)); err != nil {
			return err
		}
	}
}

// streamEvents runs one SSE connection: it subscribes after afterSeq and
// feeds parsed events to handle until handle returns false, the stream
// ends, or ctx expires.
func (c *Client) streamEvents(ctx context.Context, id string, afterSeq int, handle func(Event) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if afterSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(afterSeq))
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: %w", id, decodeAPIError(resp.StatusCode, resp.Body))
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data []byte
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		case line == "" && len(data) > 0:
			var e Event
			if err := json.Unmarshal(data, &e); err != nil {
				return fmt.Errorf("service: malformed event: %w", err)
			}
			data = data[:0]
			if !handle(e) {
				return nil
			}
		}
	}
	if err := scanner.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}

// Wait streams events until the job reaches a terminal state (calling
// onEvent for each event if non-nil), then returns the final job info.
// Because Events reconnects through dropped streams and Job retries
// through restart windows, Wait survives a server that dies and comes
// back mid-job.
func (c *Client) Wait(ctx context.Context, id string, onEvent func(Event)) (JobInfo, error) {
	err := c.Events(ctx, id, func(e Event) bool {
		if onEvent != nil {
			onEvent(e)
		}
		return !(e.Type == "status" && e.Status.Terminal())
	})
	if err != nil {
		return JobInfo{}, err
	}
	return c.Job(ctx, id)
}

// Interface checks: both result sources drive warm-start resolution.
var (
	_ ResultLookup = (*Store)(nil)
	_ ResultLookup = (*Client)(nil)
)
