package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"salsa/internal/clock"
	"salsa/internal/service"
)

// scriptDoer serves a scripted sequence of responses (or transport
// errors), one per round trip, recording each request path.
type scriptDoer struct {
	mu    sync.Mutex
	steps []scriptStep
	paths []string
}

type scriptStep struct {
	status  int
	body    string
	header  http.Header
	err     error // when non-nil, the round trip itself fails
	partial bool  // when true, close the body mid-read
}

func (d *scriptDoer) Do(req *http.Request) (*http.Response, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.paths = append(d.paths, req.URL.Path)
	if len(d.steps) == 0 {
		return nil, errors.New("scriptDoer: out of steps")
	}
	st := d.steps[0]
	d.steps = d.steps[1:]
	if st.err != nil {
		return nil, st.err
	}
	h := st.header
	if h == nil {
		h = http.Header{}
	}
	var body io.ReadCloser = io.NopCloser(strings.NewReader(st.body))
	if st.partial {
		// Half the bytes, then a transport error: what a mid-body
		// disconnect looks like to the caller.
		body = io.NopCloser(io.MultiReader(
			strings.NewReader(st.body[:len(st.body)/2]),
			errReader{},
		))
	}
	return &http.Response{StatusCode: st.status, Header: h, Body: body}, nil
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// recordClock counts and sums sleeps without actually sleeping.
type recordClock struct {
	clock.System
	mu     sync.Mutex
	sleeps []time.Duration
}

func (c *recordClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
	return ctx.Err()
}

func okBody(t *testing.T) string {
	t.Helper()
	body, err := json.Marshal(map[string]any{"fingerprint": "abc", "cost": map[string]int{"total": 7}})
	if err != nil {
		t.Fatal(err)
	}
	return string(body) + "\n"
}

func newTestClient(d *scriptDoer, clk clock.Clock) *Client {
	return New(Config{BaseURL: "http://salsad.test", Doer: d, Clock: clk, MaxAttempts: 4, Seed: 42})
}

func TestDoFirstTrySuccess(t *testing.T) {
	d := &scriptDoer{steps: []scriptStep{{status: 200, body: okBody(t),
		header: http.Header{"X-Salsa-Cache": []string{"hit"}}}}}
	c := newTestClient(d, &recordClock{})
	res, err := c.Do(context.Background(), &service.AllocateRequest{Graph: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 || !res.CacheHit {
		t.Fatalf("attempts=%d cacheHit=%t, want 1/true", res.Attempts, res.CacheHit)
	}
	if res.Result.Fingerprint != "abc" {
		t.Fatalf("fingerprint = %q", res.Result.Fingerprint)
	}
}

func TestDoRetriesTransientThenSucceeds(t *testing.T) {
	d := &scriptDoer{steps: []scriptStep{
		{err: errors.New("connection refused")},
		{status: 503, body: `{"error":"draining"}`},
		{status: 429, body: `{"error":"queue full"}`},
		{status: 200, body: okBody(t)},
	}}
	clk := &recordClock{}
	c := newTestClient(d, clk)
	res, err := c.Do(context.Background(), &service.AllocateRequest{Graph: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 4 {
		t.Fatalf("attempts = %d, want 4", res.Attempts)
	}
	if len(clk.sleeps) != 3 {
		t.Fatalf("slept %d times, want 3", len(clk.sleeps))
	}
}

func TestDoHonorsRetryAfter(t *testing.T) {
	d := &scriptDoer{steps: []scriptStep{
		{status: 429, body: `{"error":"busy"}`, header: http.Header{"Retry-After": []string{"7"}}},
		{status: 200, body: okBody(t)},
	}}
	clk := &recordClock{}
	c := newTestClient(d, clk)
	if _, err := c.Do(context.Background(), &service.AllocateRequest{Graph: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if len(clk.sleeps) != 1 || clk.sleeps[0] != 7*time.Second {
		t.Fatalf("sleeps = %v, want exactly [7s]", clk.sleeps)
	}
}

func TestDoMidBodyDisconnectRetries(t *testing.T) {
	d := &scriptDoer{steps: []scriptStep{
		{status: 200, body: okBody(t), partial: true},
		{status: 200, body: okBody(t)},
	}}
	c := newTestClient(d, &recordClock{})
	res, err := c.Do(context.Background(), &service.AllocateRequest{Graph: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (truncated body must not count as an answer)", res.Attempts)
	}
}

func TestDoPermanentFailureFailsFast(t *testing.T) {
	d := &scriptDoer{steps: []scriptStep{{status: 400, body: `{"error":"bad graph"}`}}}
	c := newTestClient(d, &recordClock{})
	_, err := c.Do(context.Background(), &service.AllocateRequest{Graph: json.RawMessage(`{}`)})
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Status != 400 {
		t.Fatalf("err = %v, want HTTPError 400", err)
	}
	if !strings.Contains(herr.Error(), "bad graph") {
		t.Fatalf("error text %q lost the server message", herr.Error())
	}
}

func TestDoGivesUpAfterMaxAttempts(t *testing.T) {
	var steps []scriptStep
	for i := 0; i < 10; i++ {
		steps = append(steps, scriptStep{status: 500, body: `{"error":"boom"}`})
	}
	d := &scriptDoer{steps: steps}
	c := newTestClient(d, &recordClock{})
	_, err := c.Do(context.Background(), &service.AllocateRequest{Graph: json.RawMessage(`{}`)})
	if err == nil || !strings.Contains(err.Error(), "giving up after 4 attempts") {
		t.Fatalf("err = %v, want giving-up error", err)
	}
	if got := len(d.paths); got != 4 {
		t.Fatalf("made %d requests, want 4", got)
	}
}

func TestDoJobPollsToCompletion(t *testing.T) {
	result := okBody(t)
	running, err := json.Marshal(service.JobStatus{ID: "j1-abc", State: "running"})
	if err != nil {
		t.Fatal(err)
	}
	done, err := json.Marshal(service.JobStatus{ID: "j1-abc", State: "done",
		HTTPStatus: 200, Result: json.RawMessage(result)})
	if err != nil {
		t.Fatal(err)
	}
	d := &scriptDoer{steps: []scriptStep{
		{status: 202, body: `{"id":"j1-abc","status_url":"/jobs/j1-abc"}`},
		{status: 200, body: string(running)},
		{err: errors.New("connection reset")}, // reconnect: same job resumed
		{status: 200, body: string(done)},
	}}
	c := newTestClient(d, &recordClock{})
	res, err := c.DoJob(context.Background(), &service.AllocateRequest{Graph: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	// Marshaling JobStatus compacts the embedded result document, so
	// compare canonically (JSON-compacted) rather than byte-for-byte.
	var want bytes.Buffer
	if err := json.Compact(&want, []byte(result)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, want.Bytes()) {
		t.Fatalf("body = %q, want the job result %q", res.Body, want.Bytes())
	}
	// One submission, three polls — never a resubmission: the transport
	// error resumed the existing job.
	wantPaths := []string{"/jobs", "/jobs/j1-abc", "/jobs/j1-abc", "/jobs/j1-abc"}
	if fmt.Sprint(d.paths) != fmt.Sprint(wantPaths) {
		t.Fatalf("paths = %v, want %v", d.paths, wantPaths)
	}
}

func TestDoJobResubmitsOnRetryableTerminalFailure(t *testing.T) {
	failed, err := json.Marshal(service.JobStatus{ID: "j1-abc", State: "failed",
		HTTPStatus: 408, Error: "abandoned"})
	if err != nil {
		t.Fatal(err)
	}
	done, err := json.Marshal(service.JobStatus{ID: "j2-abc", State: "done",
		HTTPStatus: 200, Result: json.RawMessage(okBody(t))})
	if err != nil {
		t.Fatal(err)
	}
	d := &scriptDoer{steps: []scriptStep{
		{status: 202, body: `{"id":"j1-abc","status_url":"/jobs/j1-abc"}`},
		{status: 200, body: string(failed)},
		{status: 202, body: `{"id":"j2-abc","status_url":"/jobs/j2-abc"}`},
		{status: 200, body: string(done)},
	}}
	c := newTestClient(d, &recordClock{})
	if _, err := c.DoJob(context.Background(), &service.AllocateRequest{Graph: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	want := []string{"/jobs", "/jobs/j1-abc", "/jobs", "/jobs/j2-abc"}
	if fmt.Sprint(d.paths) != fmt.Sprint(want) {
		t.Fatalf("paths = %v, want %v", d.paths, want)
	}
}

// TestDoJobTerminalFailureBody: a job that fails for good returns an
// HTTPError with the job's status and, as its body, the service's error
// document for the job's message: the bytes salsad sends when the same
// failure is answered synchronously.
func TestDoJobTerminalFailureBody(t *testing.T) {
	failed, err := json.Marshal(service.JobStatus{ID: "j1-abc", State: "failed",
		HTTPStatus: 422, Error: "no allocation"})
	if err != nil {
		t.Fatal(err)
	}
	d := &scriptDoer{steps: []scriptStep{
		{status: 202, body: `{"id":"j1-abc","status_url":"/jobs/j1-abc"}`},
		{status: 200, body: string(failed)},
	}}
	c := newTestClient(d, &recordClock{})
	_, err = c.DoJob(context.Background(), &service.AllocateRequest{Graph: json.RawMessage(`{}`)})
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Status != 422 {
		t.Fatalf("err = %v, want HTTPError 422", err)
	}
	if want := service.ErrorBody("no allocation"); !bytes.Equal(herr.Body, want) {
		t.Errorf("body = %q, want %q", herr.Body, want)
	}
}

// TestDoJobResubmitsRetiredJob: a job retired before its first poll
// answers 410 Gone, and DoJob resubmits the request (idempotent by
// content address) instead of failing.
func TestDoJobResubmitsRetiredJob(t *testing.T) {
	done, err := json.Marshal(service.JobStatus{ID: "j9-abc", State: "done",
		HTTPStatus: 200, Result: json.RawMessage(okBody(t))})
	if err != nil {
		t.Fatal(err)
	}
	d := &scriptDoer{steps: []scriptStep{
		{status: 202, body: `{"id":"j1-abc","status_url":"/jobs/j1-abc"}`},
		{status: 410, body: `{"error":"job j1-abc finished and was retired; resubmit the request"}`},
		{status: 202, body: `{"id":"j9-abc","status_url":"/jobs/j9-abc"}`},
		{status: 200, body: string(done)},
	}}
	c := newTestClient(d, &recordClock{})
	res, err := c.DoJob(context.Background(), &service.AllocateRequest{Graph: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/jobs", "/jobs/j1-abc", "/jobs", "/jobs/j9-abc"}
	if fmt.Sprint(d.paths) != fmt.Sprint(want) || res.Attempts != 4 {
		t.Fatalf("paths = %v in %d attempts, want %v", d.paths, res.Attempts, want)
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	mk := func() *Client {
		return New(Config{BaseURL: "x", Seed: 7,
			BaseBackoff: 100 * time.Millisecond, MaxBackoff: 5 * time.Second})
	}
	a, b := mk(), mk()
	for attempt := 1; attempt <= 12; attempt++ {
		da, db := a.backoff(attempt), b.backoff(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged (%v vs %v)", attempt, da, db)
		}
		if da > 5*time.Second {
			t.Fatalf("attempt %d: backoff %v exceeds cap", attempt, da)
		}
		uncapped := 100 * time.Millisecond << (attempt - 1)
		lo := min(uncapped, 5*time.Second) / 2
		if da < lo {
			t.Fatalf("attempt %d: backoff %v below half-floor %v", attempt, da, lo)
		}
	}
	// Different seeds must (overwhelmingly) jitter differently.
	other := New(Config{BaseURL: "x", Seed: 8,
		BaseBackoff: 100 * time.Millisecond, MaxBackoff: 5 * time.Second})
	same := 0
	fresh := mk()
	for attempt := 1; attempt <= 12; attempt++ {
		if fresh.backoff(attempt) == other.backoff(attempt) {
			same++
		}
	}
	if same == 12 {
		t.Fatal("seeds 7 and 8 produced identical 12-step schedules")
	}
}

func TestDoContextCancelledDuringBackoff(t *testing.T) {
	d := &scriptDoer{steps: []scriptStep{
		{status: 500, body: `{"error":"boom"}`},
		{status: 200, body: okBody(t)},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := newTestClient(d, &recordClock{})
	if _, err := c.Do(ctx, &service.AllocateRequest{Graph: json.RawMessage(`{}`)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
