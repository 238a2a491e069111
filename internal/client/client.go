// Package client implements a retrying HTTP client for the salsad
// allocation service. Allocation requests are idempotent by
// construction — the service content-addresses work by graph
// fingerprint plus normalized options, so replaying a request can
// never duplicate effects — which makes every failure retryable:
// transport errors, mid-body disconnects, 408/429/5xx responses.
//
// Retries use capped exponential backoff with seeded jitter so that a
// fleet of clients created from different seeds never synchronizes,
// while a single client's schedule is a pure function of its seed (the
// property the simulation harness depends on). A Retry-After header,
// when the server sends one, overrides the computed backoff.
//
// All waiting goes through an injectable clock.Clock, so the
// simulation harness can run the whole retry schedule in virtual time.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"salsa"
	"salsa/internal/clock"
	"salsa/internal/service"
)

// Doer is the transport seam: *http.Client satisfies it, and the
// simulation harness substitutes an in-process handler.
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// Config parameterizes a Client. The zero value of every field except
// BaseURL has a usable default.
type Config struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Doer performs HTTP round trips. Nil selects http.DefaultClient.
	Doer Doer
	// Clock times backoff sleeps and job polls. Nil selects the system
	// clock.
	Clock clock.Clock
	// MaxAttempts bounds tries per logical request (first try
	// included). Zero selects 8.
	MaxAttempts int
	// BaseBackoff is the first retry delay; each subsequent retry
	// doubles it up to MaxBackoff. Zero selects 100ms / 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// PollInterval spaces async job status polls. Zero selects 50ms.
	PollInterval time.Duration
	// Seed determines the jitter sequence. Clients with equal seeds
	// and equal failure histories sleep identical schedules.
	Seed int64
}

// Client is a retrying salsad client. Safe for concurrent use; the
// jitter stream is shared, so concurrent callers draw from one
// sequence.
type Client struct {
	cfg Config

	mu  sync.Mutex
	rng uint64 // guarded by mu
}

// New returns a client for the service at cfg.BaseURL.
func New(cfg Config) *Client {
	if cfg.Doer == nil {
		cfg.Doer = http.DefaultClient
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 50 * time.Millisecond
	}
	return &Client{cfg: cfg, rng: uint64(cfg.Seed)*2862933555777941757 + 3037000493}
}

// Result is a completed allocation as the service answered it.
type Result struct {
	// Body is the exact response body (the salsa result schema plus a
	// trailing newline) — byte-comparable across cache hits, shared
	// singleflight runs, and direct salsa.Execute output.
	Body []byte
	// Result is Body decoded.
	Result salsa.ResultJSON
	// Attempts counts HTTP requests spent on this logical request
	// (allocate tries, job submissions and status polls included).
	Attempts int
	// CacheHit reports whether the final response came from the
	// service's result cache (X-Salsa-Cache: hit).
	CacheHit bool
	// Cache is the raw X-Salsa-Cache header of the last exchange that
	// carried one ("hit" or "miss" from a single salsad; a router adds
	// "hit" for its own response cache). Empty when no exchange carried
	// the header.
	Cache string
	// Shard is the raw X-Salsa-Shard header of the last exchange that
	// carried one: the backend a cluster router proxied to (or "router"
	// when its response cache answered). Empty when talking to a single
	// salsad directly.
	Shard string
}

// HTTPError is a non-retryable HTTP failure (or the last retryable one
// once attempts are exhausted).
type HTTPError struct {
	Status int
	Body   []byte
}

func (e *HTTPError) Error() string {
	msg := string(bytes.TrimSpace(e.Body))
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(e.Body, &doc) == nil && doc.Error != "" {
		msg = doc.Error
	}
	return fmt.Sprintf("salsad: HTTP %d: %s", e.Status, msg)
}

// retryableStatus reports whether a response status is worth retrying.
// 408 (deadline expired server-side), 429 (load shed) and all 5xx
// (transient server or proxy trouble, injected or real) are; other 4xx
// mean the request itself is wrong and a replay cannot help.
func retryableStatus(status int) bool {
	return status == http.StatusRequestTimeout || status == http.StatusTooManyRequests || status >= 500
}

// Do runs one synchronous allocation: a Roundtrip of POST /allocate,
// whose retries end at a terminal answer, a non-retryable failure, the
// end of ctx, or the last attempt. A 200 decodes into the Result; any
// other status is an *HTTPError, wrapped in "giving up after N
// attempts" when it is retryable.
func (c *Client) Do(ctx context.Context, ar *service.AllocateRequest) (*Result, error) {
	payload, err := json.Marshal(ar)
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	hr, err := c.Roundtrip(ctx, http.MethodPost, "/allocate", payload)
	if err != nil {
		return nil, err
	}
	if hr.Status != http.StatusOK {
		herr := &HTTPError{Status: hr.Status, Body: hr.Body}
		if retryableStatus(hr.Status) {
			return nil, fmt.Errorf("giving up after %d attempts: %w", hr.Attempts, herr)
		}
		return nil, herr
	}
	res := &Result{Attempts: hr.Attempts}
	res.observeHeaders(hr.Header)
	res.CacheHit = res.Cache == "hit"
	if err := finishResult(res, hr.Body); err != nil {
		return nil, err
	}
	return res, nil
}

// DoJob runs one allocation asynchronously (POST /jobs + status
// polling) and blocks until the job is terminal. A transport failure
// while polling does not lose the job: the client keeps its ID and
// resumes polling, so a finished result survives any number of
// disconnects. Only losing the submission response itself (or a
// terminal retryable failure) costs a resubmission — which is safe,
// because the service deduplicates identical work by fingerprint.
func (c *Client) DoJob(ctx context.Context, ar *service.AllocateRequest) (*Result, error) {
	payload, err := json.Marshal(ar)
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	res := &Result{}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.waitRetry(ctx, attempt, lastErr); err != nil {
				return nil, err
			}
		}
		id, err := c.submitJob(ctx, payload, res)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			var herr *HTTPError
			if errors.As(err, &herr) && !retryableStatus(herr.Status) {
				return nil, herr
			}
			lastErr = err
			continue
		}
		st, err := c.pollJob(ctx, id, res)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// pollJob only fails permanently (e.g. the job vanished,
			// or finished and was retired: 410); transient trouble is
			// absorbed inside the poll loop.
			lastErr = err
			continue
		}
		if st.State == "done" {
			if err := finishResult(res, st.Result); err != nil {
				lastErr = err
				continue
			}
			return res, nil
		}
		// Terminal failure: retry the whole job if the status says the
		// failure was transient (e.g. an abandoned singleflight wait).
		herr := &HTTPError{Status: st.HTTPStatus, Body: []byte(st.Error)}
		if st.Error != "" {
			herr.Body = service.ErrorBody(st.Error)
		}
		if !retryableStatus(st.HTTPStatus) {
			return nil, herr
		}
		lastErr = herr
	}
	return nil, fmt.Errorf("giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// submitJob posts the job and returns its ID.
func (c *Client) submitJob(ctx context.Context, payload []byte, res *Result) (string, error) {
	resp, err := c.roundTrip(ctx, http.MethodPost, c.cfg.BaseURL+"/jobs", payload)
	res.Attempts++
	if err != nil {
		return "", err
	}
	res.observeHeaders(resp.header)
	if resp.status != http.StatusAccepted {
		return "", retryAfterError{err: &HTTPError{Status: resp.status, Body: resp.body}, after: resp.retryAfter}
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp.body, &doc); err != nil || doc.ID == "" {
		return "", fmt.Errorf("malformed job submission response: %q", resp.body)
	}
	return doc.ID, nil
}

// pollJob polls /jobs/{id} until the job reaches a terminal state.
// Transport errors are retried in place (the job keeps running
// server-side regardless); only a non-retryable HTTP answer — or the
// caller's ctx ending — aborts.
func (c *Client) pollJob(ctx context.Context, id string, res *Result) (*service.JobStatus, error) {
	var consecutiveFailures int
	for {
		resp, err := c.roundTrip(ctx, http.MethodGet, c.cfg.BaseURL+"/jobs/"+id, nil)
		res.Attempts++
		switch {
		case err != nil:
			consecutiveFailures++
		case resp.status != http.StatusOK:
			if !retryableStatus(resp.status) {
				return nil, &HTTPError{Status: resp.status, Body: resp.body}
			}
			consecutiveFailures++
		default:
			consecutiveFailures = 0
			res.observeHeaders(resp.header)
			var st service.JobStatus
			if jerr := json.Unmarshal(resp.body, &st); jerr != nil {
				consecutiveFailures++
				break
			}
			if st.State == "done" || st.State == "failed" {
				return &st, nil
			}
		}
		if consecutiveFailures >= c.cfg.MaxAttempts {
			return nil, fmt.Errorf("job %s: lost contact after %d consecutive poll failures", id, consecutiveFailures)
		}
		delay := c.cfg.PollInterval
		if consecutiveFailures > 0 {
			delay = c.backoff(consecutiveFailures)
		}
		if err := c.cfg.Clock.Sleep(ctx, delay); err != nil {
			return nil, err
		}
	}
}

// observeHeaders records routing and caching headers from one
// exchange into res; the last exchange that carries a header wins, so
// the final answer's provenance survives any retries before it.
func (res *Result) observeHeaders(h http.Header) {
	if v := h.Get("X-Salsa-Cache"); v != "" {
		res.Cache = v
	}
	if v := h.Get("X-Salsa-Shard"); v != "" {
		res.Shard = v
	}
}

// HTTPResult is one terminal HTTP exchange as Roundtrip saw it: the
// last response obtained after retrying transient failures. Status may
// still be retryable (408/429/5xx) when attempts ran out — callers
// doing their own failover (the cluster router) inspect it.
type HTTPResult struct {
	Status int
	Body   []byte
	// Header is the response header set of the final exchange.
	Header http.Header
	// Attempts counts HTTP round trips spent (first try included).
	Attempts int
}

// Roundtrip performs one retrying HTTP exchange against path (joined
// to the client's BaseURL): transport errors, mid-body disconnects and
// retryable statuses (408/429/5xx) are retried with the client's
// backoff schedule, honoring Retry-After. It returns the first
// non-retryable answer, or — once attempts run out — the last
// retryable response with a nil error, so callers can distinguish "the
// service answered, badly" from "no answer at all" (non-nil error).
// It is the proxying primitive the cluster router builds per-backend
// failover on: the router keeps each backend conversation retrying
// briefly, then moves to the next healthy backend in the key's
// placement order.
func (c *Client) Roundtrip(ctx context.Context, method, path string, body []byte) (*HTTPResult, error) {
	res := &HTTPResult{}
	var last *httpOutcome
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.waitRetry(ctx, attempt, lastErr); err != nil {
				return nil, err
			}
		}
		resp, err := c.roundTrip(ctx, method, c.cfg.BaseURL+path, body)
		res.Attempts++
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		last = resp
		if !retryableStatus(resp.status) {
			break
		}
		lastErr = retryAfterError{err: &HTTPError{Status: resp.status, Body: resp.body}, after: resp.retryAfter}
	}
	if last == nil {
		return nil, fmt.Errorf("giving up after %d attempts: %w", res.Attempts, lastErr)
	}
	res.Status = last.status
	res.Body = last.body
	res.Header = last.header
	return res, nil
}

// finishResult decodes a 200 body into res.
func finishResult(res *Result, body []byte) error {
	var rj salsa.ResultJSON
	if err := json.Unmarshal(body, &rj); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	res.Body = body
	res.Result = rj
	return nil
}

// httpOutcome is one fully-read HTTP exchange.
type httpOutcome struct {
	status     int
	body       []byte
	header     http.Header
	retryAfter time.Duration // 0 = header absent
}

// roundTrip performs one HTTP exchange, reading the body to EOF. A
// mid-body disconnect surfaces as an error here (the transport sees
// fewer bytes than Content-Length promised), so truncated responses
// are never mistaken for terminal answers.
func (c *Client) roundTrip(ctx context.Context, method, url string, body []byte) (*httpOutcome, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.cfg.Doer.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("reading response body: %w", err)
	}
	if cerr != nil {
		return nil, fmt.Errorf("closing response body: %w", cerr)
	}
	out := &httpOutcome{status: resp.StatusCode, body: data, header: resp.Header}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, perr := strconv.Atoi(v); perr == nil && secs >= 0 {
			out.retryAfter = time.Duration(secs) * time.Second
		}
	}
	return out, nil
}

// waitRetry sleeps before retry number attempt, honoring a Retry-After
// carried by the previous failure when it is longer than the computed
// backoff.
func (c *Client) waitRetry(ctx context.Context, attempt int, lastErr error) error {
	delay := c.backoff(attempt)
	var rae retryAfterError
	if errors.As(lastErr, &rae) && rae.after > delay {
		delay = rae.after
	}
	return c.cfg.Clock.Sleep(ctx, delay)
}

// backoff computes the delay before retry number attempt (1-based):
// base·2^(attempt-1) capped at max, jittered into [d/2, d] by the
// seeded generator.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BaseBackoff
	for i := 1; i < attempt && d < c.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(c.next()%uint64(half+1))
}

// next advances the shared jitter stream (the repo's LCG constants, so
// the schedule is reproducible from Config.Seed).
func (c *Client) next() uint64 {
	c.mu.Lock()
	c.rng = c.rng*6364136223846793005 + 1442695040888963407
	x := c.rng
	c.mu.Unlock()
	return x >> 16
}

// retryAfterError pairs a retryable HTTP failure with the server's
// Retry-After hint so waitRetry can honor it.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e retryAfterError) Error() string { return e.err.Error() }
func (e retryAfterError) Unwrap() error { return e.err }
