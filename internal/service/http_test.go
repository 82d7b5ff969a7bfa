package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
)

// newTestServer boots a Manager behind an httptest server and returns a
// Client against it.
func newTestServer(t *testing.T, cfg Config) (*Client, *Manager) {
	t.Helper()
	m := newTestManager(t, cfg)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return NewClient(srv.URL), m
}

// TestScenarioListingMatchesProblems: GET /v1/scenarios serves the rows
// the registry computed when each scenario registered. Every row must
// equal the one built from the scenario's NewProblem, its space size bit
// for bit. (TestSummariesMatchProblems in internal/scenario/family covers
// both families; enabling them here would make every test that walks
// the registry after this one walk 213 scenarios.)
func TestScenarioListingMatchesProblems(t *testing.T) {
	c, _ := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := c.Scenarios(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cal := casestudy.DefaultCalibration()
	var want []ScenarioInfo
	for _, sc := range scenario.List() {
		p, err := scenario.NewProblem(sc, cal)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ScenarioInfo{
			Name:        sc.Name,
			Description: sc.Description,
			Stress:      sc.Stress,
			Nodes:       len(sc.Nodes),
			Genes:       len(p.Space().Params),
			SpaceSize:   p.Space().Size(),
			Objectives:  3,
		})
	}
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("row %d: listed %+v, NewProblem gives %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("%d rows listed, %d scenarios registered", len(got), len(want))
	}
}

func TestHTTPSubmitWaitFront(t *testing.T) {
	c, _ := newTestServer(t, Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	scenarios, err := c.Scenarios(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != len(scenario.Names()) {
		t.Fatalf("%d scenarios over HTTP, registry has %d", len(scenarios), len(scenario.Names()))
	}
	for _, si := range scenarios {
		if si.Name == "" || si.SpaceSize <= 0 || si.Objectives != 3 {
			t.Fatalf("scenario info %+v", si)
		}
	}

	info, err := c.Submit(ctx, smallNSGA2("ecg-ward", 7))
	if err != nil {
		t.Fatal(err)
	}
	var progressEvents, statusEvents int
	final, err := c.Wait(ctx, info.ID, func(e Event) {
		switch e.Type {
		case "progress":
			progressEvents++
		case "status":
			statusEvents++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("job %s: %s", final.Status, final.Error)
	}
	if progressEvents == 0 || statusEvents == 0 {
		t.Fatalf("SSE delivered %d progress / %d status events", progressEvents, statusEvents)
	}
	front, err := c.Front(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Front) == 0 || front.Status != StatusDone {
		t.Fatalf("front %+v", front)
	}

	// The versioned store serves the same front, both via the query
	// endpoint and the direct version endpoint.
	results, err := c.ResultsPage(ctx, ResultQuery{Scenario: "ecg-ward", Algorithm: AlgoNSGA2})
	if err != nil {
		t.Fatal(err)
	}
	if results.Total != 1 || len(results.Items) != 1 || !reflect.DeepEqual(results.Items[0].Front, front.Front) {
		t.Fatalf("stored results %+v", results)
	}
	if results.Items[0].Version != final.ResultVersion {
		t.Fatalf("store version %d, job says %d", results.Items[0].Version, final.ResultVersion)
	}
	byVersion, err := c.Result(ctx, final.ResultVersion)
	if err != nil {
		t.Fatal(err)
	}
	if byVersion.Key == "" || byVersion.Fingerprint == "" || !reflect.DeepEqual(byVersion.Front, front.Front) {
		t.Fatalf("result by version %+v", byVersion)
	}

	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != info.ID {
		t.Fatalf("jobs %+v", jobs)
	}
}

// TestHTTPEndToEndAllScenariosBothAlgorithms is the acceptance sweep:
// submit → stream progress via SSE → fetch front over HTTP for every
// registered scenario × {nsga2, mosa}, twice each at different service
// concurrency, asserting bit-identical fronts.
func TestHTTPEndToEndAllScenariosBothAlgorithms(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	type key struct{ scenario, algo string }
	run := func(workers int) map[key]FrontResponse {
		c, _ := newTestServer(t, Config{Workers: workers})
		fronts := map[key]FrontResponse{}
		var ids []struct {
			k  key
			id string
		}
		for _, name := range scenario.Names() {
			for _, algo := range []string{AlgoNSGA2, AlgoMOSA} {
				spec := Spec{Scenario: name, Algorithm: algo, Seed: 21, Workers: 2}
				switch algo {
				case AlgoNSGA2:
					spec.NSGA2 = &dse.NSGA2Config{PopulationSize: 8, Generations: 5}
				case AlgoMOSA:
					spec.MOSA = &dse.MOSAConfig{Iterations: 600, Restarts: 2}
				}
				info, err := c.Submit(ctx, spec)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, algo, err)
				}
				ids = append(ids, struct {
					k  key
					id string
				}{key{name, algo}, info.ID})
			}
		}
		for _, entry := range ids {
			sawProgress := false
			final, err := c.Wait(ctx, entry.id, func(e Event) {
				if e.Type == "progress" {
					sawProgress = true
				}
			})
			if err != nil {
				t.Fatalf("%v: %v", entry.k, err)
			}
			if final.Status != StatusDone {
				t.Fatalf("%v: %s (%s)", entry.k, final.Status, final.Error)
			}
			if !sawProgress {
				t.Errorf("%v: no progress events on the SSE stream", entry.k)
			}
			front, err := c.Front(ctx, entry.id)
			if err != nil {
				t.Fatalf("%v: %v", entry.k, err)
			}
			if len(front.Front) == 0 {
				t.Fatalf("%v: empty front", entry.k)
			}
			fronts[entry.k] = front
		}
		return fronts
	}

	sequential := run(1)
	concurrent := run(4)
	for k, want := range sequential {
		got := concurrent[k]
		if !reflect.DeepEqual(want.Front, got.Front) {
			t.Fatalf("%v: front differs between service concurrency 1 and 4", k)
		}
		if want.Evaluated != got.Evaluated || want.Infeasible != got.Infeasible {
			t.Fatalf("%v: counts differ between service concurrency 1 and 4", k)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	c, m := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := c.Submit(ctx, Spec{Scenario: "nope", Algorithm: AlgoNSGA2}); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Fatalf("bad spec error: %v", err)
	}
	if _, err := c.Job(ctx, "j999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job error: %v", err)
	}
	if _, err := c.Front(ctx, "j999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown front error: %v", err)
	}
	if err := c.Events(ctx, "j999", func(Event) bool { return true }); err == nil {
		t.Fatal("events for unknown job succeeded")
	}

	// Front before completion → 409. Submit an effectively-endless job.
	info, err := c.Submit(ctx, Spec{
		Scenario: "ecg-ward", Algorithm: AlgoNSGA2, Seed: 1, Workers: 1,
		NSGA2: &dse.NSGA2Config{PopulationSize: 8, Generations: 1000000},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		ji, err := c.Job(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ji.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", ji.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Front(ctx, info.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("running-front error: %v", err)
	}
	if _, err := c.Cancel(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCancelled {
		t.Fatalf("cancelled job is %s", final.Status)
	}
	_ = m
}

// TestHTTPAPIErrorCodes pins the structured error envelope: every
// failure surfaces as a typed *APIError whose machine-readable code a
// client can branch on with errors.As.
func TestHTTPAPIErrorCodes(t *testing.T) {
	c, _ := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	codeOf := func(err error) (string, int) {
		t.Helper()
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("error is not an *APIError: %v", err)
		}
		return apiErr.Code, apiErr.StatusCode
	}

	_, err := c.Submit(ctx, Spec{Scenario: "nope", Algorithm: AlgoNSGA2})
	if code, status := codeOf(err); code != CodeInvalidSpec || status != http.StatusBadRequest {
		t.Fatalf("bad spec → %s/%d", code, status)
	}
	_, err = c.Job(ctx, "j999")
	if code, status := codeOf(err); code != CodeNotFound || status != http.StatusNotFound {
		t.Fatalf("unknown job → %s/%d", code, status)
	}
	_, err = c.Result(ctx, 999)
	if code, _ := codeOf(err); code != CodeNotFound {
		t.Fatalf("unknown result version → %s", code)
	}
	err = c.do(ctx, http.MethodGet, "/v1/results/banana", nil, nil)
	if code, _ := codeOf(err); code != CodeInvalidArgument {
		t.Fatalf("malformed result version → %s", code)
	}
	err = c.do(ctx, http.MethodGet, "/v1/jobs?limit=-1", nil, nil)
	if code, _ := codeOf(err); code != CodeInvalidArgument {
		t.Fatalf("negative limit → %s", code)
	}
	err = c.do(ctx, http.MethodGet, "/v1/results?offset=x", nil, nil)
	if code, _ := codeOf(err); code != CodeInvalidArgument {
		t.Fatalf("malformed offset → %s", code)
	}
}

// TestHTTPSubmitUnknownFieldRejected: a typo in the spec body, or a
// field the spec does not have such as "resume", must be a 400
// invalid_spec, not a silently defaulted job.
func TestHTTPSubmitUnknownFieldRejected(t *testing.T) {
	c, m := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for field, body := range map[string]map[string]any{
		"algoritm": {"scenario": "ecg-ward", "algoritm": AlgoNSGA2},
		"resume":   {"scenario": "ecg-ward", "algorithm": AlgoNSGA2, "resume": map[string]any{"algorithm": AlgoNSGA2, "step": 3}},
	} {
		err := c.do(ctx, http.MethodPost, "/v1/jobs", body, nil)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Code != CodeInvalidSpec || apiErr.StatusCode != http.StatusBadRequest {
			t.Fatalf("field %q → %v", field, err)
		}
		if !strings.Contains(apiErr.Message, field) {
			t.Fatalf("error does not name the offending field %q: %q", field, apiErr.Message)
		}
	}
	if jobs := m.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submission left %d job records", len(jobs))
	}
	// The well-formed twin is accepted — the rejection above was the
	// typo, not the endpoint.
	if _, err := c.Submit(ctx, smallNSGA2("ecg-ward", 1)); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitNestedSeedRejected: a job runs with the spec's own seed and
// workers, so a seed or worker count inside the nsga2 block is a 400
// invalid_spec over HTTP, naming the field, and an error from
// Manager.Submit, not a value the job's spec echoes and the run ignores.
func TestSubmitNestedSeedRejected(t *testing.T) {
	c, m := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const body = `{"scenario":"ecg-ward","algorithm":"nsga2","seed":3,"nsga2":{"population_size":8,"generations":2,"seed":7,"workers":9}}`
	err := c.do(ctx, http.MethodPost, "/v1/jobs", json.RawMessage(body), nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeInvalidSpec || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("nested seed and workers → %v", err)
	}
	if !strings.Contains(apiErr.Message, "nsga2.seed") {
		t.Fatalf("error does not name nsga2.seed: %q", apiErr.Message)
	}
	for field, raw := range map[string]string{
		"nsga2.seed":    body,
		"nsga2.workers": `{"scenario":"ecg-ward","algorithm":"nsga2","nsga2":{"workers":2}}`,
		"mosa.seed":     `{"scenario":"ecg-ward","algorithm":"mosa","mosa":{"seed":1}}`,
	} {
		var spec Spec
		if err := json.Unmarshal([]byte(raw), &spec); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Submit(spec); err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("Manager.Submit of %s → %v, want an error naming %s", raw, err, field)
		}
	}
	if jobs := m.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submissions left %d job records", len(jobs))
	}
}

// TestHTTPPagination drives the Page envelope over all three list
// endpoints: window arithmetic, the limit clamp, and the page-draining
// convenience methods.
func TestHTTPPagination(t *testing.T) {
	c, m := newTestServer(t, Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const n = 5
	for i := 0; i < n; i++ {
		info, err := c.Submit(ctx, Spec{Scenario: "ecg-ward", Algorithm: AlgoRandom, Seed: int64(i), Budget: 64, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, m, info.ID)
	}

	page, err := c.JobsPage(ctx, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != n || len(page.Items) != 2 || page.Limit != 2 || page.Offset != 0 {
		t.Fatalf("jobs page 1: %+v", page)
	}
	last, err := c.JobsPage(ctx, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if last.Total != n || len(last.Items) != 1 {
		t.Fatalf("jobs last page: %+v", last)
	}
	if page.Items[0].ID == last.Items[0].ID {
		t.Fatal("pages overlap")
	}
	beyond, err := c.JobsPage(ctx, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(beyond.Items) != 0 || beyond.Total != n {
		t.Fatalf("past-the-end page: %+v", beyond)
	}
	all, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Fatalf("Jobs() drained %d, want %d", len(all), n)
	}

	// A limit beyond the cap is clamped, and the response says so.
	var raw Page[JobInfo]
	if err := c.do(ctx, http.MethodGet, "/v1/jobs?limit=99999", nil, &raw); err != nil {
		t.Fatal(err)
	}
	if raw.Limit != MaxPageLimit {
		t.Fatalf("limit echoed %d, want clamp to %d", raw.Limit, MaxPageLimit)
	}

	// Results pagination windows the newest-first order.
	rp, err := c.ResultsPage(ctx, ResultQuery{Scenario: "ecg-ward", Algorithm: AlgoRandom, Limit: 2, Offset: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Total != n || len(rp.Items) != 2 || rp.Items[0].Version <= rp.Items[1].Version {
		t.Fatalf("results page %+v", rp)
	}

	// Scenario pagination agrees with the registry size.
	sp, err := c.ScenariosPage(ctx, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Total != len(scenario.Names()) || len(sp.Items) != 1 {
		t.Fatalf("scenarios page %+v", sp)
	}
}

// TestHTTPCheckpointRoundTrip drives the kill/resume flow purely over the
// HTTP surface: checkpoint → cancel → resubmit with resume_job naming the
// killed job → identical front to an uninterrupted HTTP job.
func TestHTTPCheckpointRoundTrip(t *testing.T) {
	c, _ := newTestServer(t, Config{Workers: 2, CheckpointDir: t.TempDir()})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := Spec{
		Scenario: "athletes", Algorithm: AlgoNSGA2, Seed: 13, Workers: 2,
		NSGA2: &dse.NSGA2Config{PopulationSize: 12, Generations: 25},
	}
	ref, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, ref.ID, nil); err != nil {
		t.Fatal(err)
	}
	want, err := c.Front(ctx, ref.ID)
	if err != nil {
		t.Fatal(err)
	}

	spec.CheckpointEvery = 4
	victim, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Events(ctx, victim.ID, func(e Event) bool {
		if e.Type == "progress" && e.Progress.Step >= 4 {
			if _, err := c.Cancel(ctx, victim.ID); err != nil {
				t.Errorf("cancel: %v", err)
			}
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, victim.ID, nil); err != nil {
		t.Fatal(err)
	}

	resume := spec
	resume.ResumeJob = victim.ID
	resumed, err := c.Submit(ctx, resume)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, resumed.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone || final.ResumedFromStep < 4 {
		t.Fatalf("resumed job %s from step %d (%s)", final.Status, final.ResumedFromStep, final.Error)
	}
	got, err := c.Front(ctx, resumed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Front, got.Front) {
		t.Fatal("resumed-over-HTTP front differs from uninterrupted run")
	}
}

// TestSSEWireFormat checks the raw stream shape without the client's
// parser in the way.
func TestSSEWireFormat(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	info, err := m.Submit(smallNSGA2("ecg-ward", 5))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, info.ID)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// The job is already terminal, so the server replays the history and
	// closes the stream — a plain read drains it.
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{"event: status", "event: progress", `"status":"done"`, "id: "} {
		if !strings.Contains(body, want) {
			t.Fatalf("SSE body missing %q:\n%s", want, body)
		}
	}
	// Each data line must be standalone-parseable JSON.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "data: ") {
			var e Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("unparseable data line %q: %v", line, err)
			}
		}
	}
}

// TestSSESubscribersGauge: wsndse_sse_subscribers counts open /events
// streams. Two streams on a held job read 2, one client hanging up leaves
// 1, and the job's end, which ends the other stream, leaves 0.
func TestSSESubscribersGauge(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	release := sync.OnceFunc(holdWorker(t, m))
	defer release()

	gauge := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, "wsndse_sse_subscribers "); ok {
				return v
			}
		}
		t.Fatalf("no wsndse_sse_subscribers sample in /metrics:\n%s", body)
		return ""
	}
	// open starts a stream on the held job j1 and reads its first line,
	// which the server writes once it counts the stream.
	open := func() (*bufio.Reader, context.CancelFunc) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/j1/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		body := bufio.NewReader(resp.Body)
		if _, err := body.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
		return body, cancel
	}

	_, hangUp := open()
	stays, stop := open()
	defer stop()
	if got := gauge(); got != "2" {
		t.Fatalf("wsndse_sse_subscribers %s with two streams open, want 2", got)
	}
	hangUp()
	deadline := time.Now().Add(10 * time.Second)
	for got := gauge(); got != "1"; got = gauge() {
		if time.Now().After(deadline) {
			t.Fatalf("wsndse_sse_subscribers %s after one client hung up, want 1", got)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	rest, err := io.ReadAll(stays)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rest), `"status":"cancelled"`) {
		t.Fatalf("stream ended without the terminal status event:\n%s", rest)
	}
	if got := gauge(); got != "0" {
		t.Fatalf("wsndse_sse_subscribers %s after the job ended, want 0", got)
	}
}

// FuzzSpecDecode feeds arbitrary bytes through the POST /v1/jobs decoder
// (MaxBodyBytes cap, unknown fields rejected), then through normalize and
// Validate as Submit does. Nothing may panic; every decoded spec must
// survive a JSON round trip; and a spec Validate accepts must build a
// dse.Search that validates, ask for islands only with an algorithm that
// takes injected points, convert a positive deadline to a positive
// duration, stay within the population and chain caps, and name a
// resume_job whose number is at most maxJobNumber.
func FuzzSpecDecode(f *testing.F) {
	chaos := chaosSpecs()
	seeds := []Spec{smallNSGA2("ecg-ward", 7), islandSpec(7)}
	for _, name := range slices.Sorted(maps.Keys(chaos)) {
		seeds = append(seeds, chaos[name])
	}
	seeds = append(seeds,
		// The shapes of the four benchmark workloads' jobs: ward-explore,
		// ward-burst, family-mosa and paper-validate.
		Spec{Scenario: "ecg-ward", Algorithm: AlgoNSGA2, Seed: 101, Workers: 2,
			NSGA2: &dse.NSGA2Config{PopulationSize: 256, Generations: 120}},
		Spec{Scenario: "ecg-ward", Algorithm: AlgoNSGA2, Seed: 101, Workers: 1,
			NSGA2: &dse.NSGA2Config{PopulationSize: 8, Generations: 4}},
		Spec{Scenario: registerSweepMember(f, "telosb"), Algorithm: AlgoMOSA, Seed: 101, Workers: 2,
			MOSA: &dse.MOSAConfig{Iterations: 20000}, WarmStart: WarmStartAuto, CheckpointEvery: 4},
		Spec{Scenario: "athletes", Algorithm: AlgoNSGA2, Seed: 11, Workers: 2,
			NSGA2: &dse.NSGA2Config{PopulationSize: 32, Generations: 12}},
		// A deadline past the range of time.Duration, and a resume_job of
		// a random search: its snapshot's step and draw cursors must not
		// be negative.
		Spec{Scenario: "ecg-ward", Algorithm: AlgoNSGA2, DeadlineSeconds: 1e11},
		Spec{Scenario: "ecg-ward", Algorithm: AlgoRandom, Budget: 3000, ResumeJob: "j1"},
		// A resume_job past the job-number cap.
		Spec{Scenario: "ecg-ward", Algorithm: AlgoNSGA2, ResumeJob: "j9223372036854775807"},
	)
	for _, spec := range seeds {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The wsn-serve smoke specs, as its smoke test sends them.
	for _, raw := range []string{
		`{"scenario":"ecg-ward","algorithm":"nsga2","seed":7,"workers":2,"nsga2":{"population_size":16,"generations":12}}`,
		`{"scenario":"ecg-ward","algorithm":"nsga2","seed":7,"workers":2,"checkpoint_every":100,"nsga2":{"population_size":16,"generations":1500}}`,
		`{"scenario":"ecg-ward","algorithm":"nsga2","seed":7,"workers":2,"islands":2,"migration_interval":6,"nsga2":{"population_size":16,"generations":12}}`,
		`{"scenario":"ecg-ward","algorithm":"nsga2","seed":21,"workers":2,"warm_start":"auto","nsga2":{"population_size":16,"generations":12}}`,
		// A seed and worker count nested in the nsga2 block: refused.
		`{"scenario":"ecg-ward","algorithm":"nsga2","seed":3,"nsga2":{"population_size":8,"generations":2,"seed":7,"workers":9}}`,
	} {
		f.Add([]byte(raw))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(data)))
		if err != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("decoded spec does not encode: %v", err)
		}
		dec := json.NewDecoder(bytes.NewReader(enc))
		dec.DisallowUnknownFields()
		var back Spec
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("spec changed in a JSON round trip:\n%+v\n%+v", spec, back)
		}

		spec = spec.normalize()
		if spec.Validate() != nil {
			return
		}
		search := spec.search()
		if err := search.Validate(); err != nil {
			t.Fatalf("accepted spec builds an invalid search: %v", err)
		}
		if spec.Islands >= 2 && !search.Injectable() {
			t.Fatalf("accepted %d islands of %q, which takes no injected points", spec.Islands, spec.Algorithm)
		}
		if spec.NSGA2 != nil && spec.NSGA2.PopulationSize > maxPopulation {
			t.Fatalf("accepted population size %d above the cap %d", spec.NSGA2.PopulationSize, maxPopulation)
		}
		// Both fields are omitempty, so a nested seed or worker count
		// shows in the configs' JSON exactly when it is not zero.
		if nested, _ := json.Marshal([]any{spec.NSGA2, spec.MOSA}); bytes.Contains(nested, []byte(`"seed"`)) || bytes.Contains(nested, []byte(`"workers"`)) {
			t.Fatalf("accepted a seed or worker count inside nsga2 or mosa: %s", nested)
		}
		if spec.MOSA != nil && spec.MOSA.Restarts > maxChains {
			t.Fatalf("accepted %d MOSA chains above the cap %d", spec.MOSA.Restarts, maxChains)
		}
		if spec.DeadlineSeconds > 0 {
			if d, err := spec.deadline(); err != nil || d <= 0 {
				t.Fatalf("accepted deadline_seconds %g converts to %v (%v)", spec.DeadlineSeconds, d, err)
			}
		}
		if spec.ResumeJob != "" {
			if n, ok := jobNumber(spec.ResumeJob); !ok || int64(n) > maxJobNumber {
				t.Fatalf("accepted resume_job %q parses to %d (%v), want at most %d", spec.ResumeJob, n, ok, int64(maxJobNumber))
			}
		}
	})
}
