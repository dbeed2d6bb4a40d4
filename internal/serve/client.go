package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/run"
)

// Client-side metric names, published into Client.Metrics when a registry is
// attached (c3ibench -remote attaches the shared experiments registry, so
// -stats snapshots carry them; the router attaches its own).
const (
	// MetricClientAttempts counts every HTTP attempt a batch POST made,
	// labeled {path=...} — attempts minus requests is the retry pressure.
	MetricClientAttempts = "serve_client_attempts_total"
	// MetricClientRetries counts only the re-attempts, labeled {path=...,
	// reason="transport"|"status"}.
	MetricClientRetries = "serve_client_retries_total"
)

// Retry defaults: batch POSTs are idempotent (Specs are deterministic and
// cached server-side), so transient transport errors, 5xx and 429 are worth
// a few capped, jittered backoff rounds before giving up.
const (
	DefaultRetries      = 3
	DefaultRetryBackoff = 100 * time.Millisecond
	maxRetryBackoff     = 3 * time.Second
	maxRetryAfter       = 5 * time.Second
)

// Client executes Specs against a c3iserve (or c3irouter) endpoint. It
// implements run.Executor, so anything written against that interface — the
// experiment tables via `c3ibench -remote`, most usefully — runs remotely
// unchanged, and the Records that come back are the same bytes the server
// computed (same Key, ModelSeconds, Checksum: floats and checksums survive
// the JSON round trip exactly).
type Client struct {
	// Addr is the server base URL ("http://host:port").
	Addr string
	// HTTP overrides the transport; nil means a default client honoring
	// Timeout.
	HTTP *http.Client
	// Timeout bounds each whole request (connect through body read) when
	// HTTP is nil. The zero value means no timeout — deliberate, not an
	// oversight: a cold paper-scale sweep legitimately holds one batch
	// request open for minutes, so callers opt in to a bound rather than
	// having long experiments severed by a default.
	Timeout time.Duration
	// Retries bounds how many times an idempotent batch POST is re-attempted
	// after a transient transport error, a 5xx, or a 429 (admission
	// control). Retrying is safe because Specs are deterministic and the
	// server deduplicates: a retried Spec is served from cache, never
	// recomputed. 0 means DefaultRetries; negative disables retries (the
	// router does this — its failover to a replica IS the retry).
	Retries int
	// RetryBackoff is the first retry's backoff; it doubles per attempt
	// (capped) with up to 50% added jitter, and a server Retry-After header
	// is honored when longer. 0 means DefaultRetryBackoff.
	RetryBackoff time.Duration
	// Metrics, when non-nil, receives the client_* attempt/retry counters.
	Metrics *obs.Registry
}

var _ run.Executor = (*Client)(nil)

// StatusError is the typed error RunBatch and RunStream return when the
// server answered with a non-200 status (after retries are exhausted, for
// retryable ones). Callers that care which status — the load harness counts
// 429 admission rejections separately from real failures — unwrap it with
// errors.As instead of matching message text.
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// Status is the full status line ("429 Too Many Requests").
	Status string
	// Msg is the server's error body, when it carried one.
	Msg string
}

// Error implements error.
func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("%s: %s", e.Status, e.Msg)
	}
	return e.Status
}

// statusError builds the StatusError for a non-200 response whose body has
// already been read.
func statusError(resp *http.Response, body []byte) *StatusError {
	se := &StatusError{Code: resp.StatusCode, Status: resp.Status}
	var er ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		se.Msg = er.Error
	} else if trimmed := bytes.TrimSpace(body); len(trimmed) > 0 {
		se.Msg = string(trimmed)
	}
	return se
}

// httpClient resolves the client every request uses: an explicit HTTP
// override wins, otherwise a client bounded by Timeout (the shared
// http.DefaultClient when no timeout is asked for).
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	if c.Timeout > 0 {
		return &http.Client{Timeout: c.Timeout}
	}
	return http.DefaultClient
}

// retries resolves the Retries knob (0 = default, negative = none).
func (c *Client) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return DefaultRetries
	}
	return c.Retries
}

// count increments a client metric when a registry is attached.
func (c *Client) count(name string, labels obs.Labels) {
	if c.Metrics != nil {
		c.Metrics.Counter(name, labels).Inc()
	}
}

// retryableStatus reports whether a response status is worth re-attempting:
// server-side trouble (5xx) or admission-control pushback (429).
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// retryDelay computes the next backoff: exponential from base with up to 50%
// jitter, capped, and stretched to a 429's Retry-After when the server asked
// for longer (itself capped — a server cannot park a client indefinitely).
func retryDelay(base time.Duration, attempt int, retryAfter string) time.Duration {
	d := base
	for i := 0; i < attempt && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	if ra, ok := retryAfterDelay(retryAfter, time.Now()); ok && ra > d {
		d = ra
	}
	return d
}

// retryAfterDelay parses a Retry-After header value into a wait duration.
// RFC 9110 §10.2.3 allows two forms: a non-negative delta-seconds integer,
// or an HTTP-date (any of the three formats http.ParseTime accepts), which
// is resolved against now. The result is capped at maxRetryAfter; a date in
// the past yields a zero wait. Unparseable values report ok=false and are
// ignored by the retry policy — a garbled header must not stall the client.
func retryAfterDelay(retryAfter string, now time.Time) (time.Duration, bool) {
	if retryAfter == "" {
		return 0, false
	}
	var d time.Duration
	if secs, err := strconv.Atoi(retryAfter); err == nil {
		if secs < 0 {
			return 0, false
		}
		d = time.Duration(secs) * time.Second
	} else if at, err := http.ParseTime(retryAfter); err == nil {
		d = at.Sub(now)
		if d < 0 {
			d = 0
		}
	} else {
		return 0, false
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d, true
}

// post issues one idempotent batch POST with the retry policy. It returns
// the first non-retryable response, the final retryable response once
// attempts are exhausted, or the final transport error; the caller still
// interprets the response status. With retryBusy false a 429 is handed back
// at once: RunAll splits a rejected batch of several Specs instead of
// resending it unchanged.
func (c *Client) post(ctx context.Context, path string, body []byte, retryBusy bool) (*http.Response, error) {
	base := c.RetryBackoff
	if base <= 0 {
		base = DefaultRetryBackoff
	}
	max := c.retries()
	labels := obs.Labels{"path": path}
	for attempt := 0; ; attempt++ {
		c.count(MetricClientAttempts, labels)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Addr+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, rerr := c.httpClient().Do(req)
		if rerr == nil && (!retryableStatus(resp.StatusCode) ||
			!retryBusy && resp.StatusCode == http.StatusTooManyRequests) {
			return resp, nil
		}
		// Out of attempts (or the context is gone): hand back whatever this
		// attempt produced.
		if attempt >= max || ctx.Err() != nil {
			return resp, rerr
		}
		reason, retryAfter := "transport", ""
		if rerr == nil {
			reason = "status"
			retryAfter = resp.Header.Get("Retry-After")
			// Drain so the connection is reusable for the retry.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
		}
		c.count(MetricClientRetries, obs.Labels{"path": path, "reason": reason})
		select {
		case <-time.After(retryDelay(base, attempt, retryAfter)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Run executes one Spec remotely (a batch of one). Consumers with several
// Specs send them together through RunAll (run.Batch does), one round trip
// instead of one per Spec.
func (c *Client) Run(ctx context.Context, spec run.Spec) (run.Record, error) {
	recs, err := c.RunAll(ctx, []run.Spec{spec})
	if err != nil {
		return run.Record{}, err
	}
	return recs[0], nil
}

// RunBatch executes a Spec batch remotely and returns the server's
// positional response verbatim: Records[i]/Errors[i] describe specs[i], with
// failed specs left as null records. The error covers transport and protocol
// problems only — per-spec failures live in the response. Transient
// transport errors, 5xx and 429 are retried per the Client's retry policy
// before any error is reported.
func (c *Client) RunBatch(ctx context.Context, specs []run.Spec) (BatchResponse, error) {
	return c.runBatch(ctx, specs, true)
}

// runBatch is RunBatch with the choice of retrying a 429 (see post).
func (c *Client) runBatch(ctx context.Context, specs []run.Spec, retryBusy bool) (BatchResponse, error) {
	body, err := json.Marshal(specs)
	if err != nil {
		return BatchResponse{}, fmt.Errorf("serve: encoding batch: %w", err)
	}
	resp, err := c.post(ctx, RunPath, body, retryBusy)
	if err != nil {
		return BatchResponse{}, fmt.Errorf("serve: %s: %w", c.Addr, err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return BatchResponse{}, fmt.Errorf("serve: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return BatchResponse{}, fmt.Errorf("serve: %w", statusError(resp, buf))
	}
	var br BatchResponse
	if err := json.Unmarshal(buf, &br); err != nil {
		return BatchResponse{}, fmt.Errorf("serve: decoding response: %w", err)
	}
	if len(br.Records) != len(specs) || len(br.Errors) != len(specs) {
		return BatchResponse{}, fmt.Errorf("serve: response not positional: %d records / %d errors for %d specs",
			len(br.Records), len(br.Errors), len(specs))
	}
	return br, nil
}

// RunStream executes a Spec batch via POST /v1/run/stream, invoking fn once
// per StreamEvent as each line arrives — Records stream in completion order
// while the sweep is still running. The retry policy applies only up to the
// response header (a stream that dies mid-body surfaces as an error: the
// caller decides whether re-submitting the incomplete remainder is worth it;
// the router's failover does exactly that). The returned error covers
// transport and protocol problems; per-spec failures arrive as error events.
func (c *Client) RunStream(ctx context.Context, specs []run.Spec, fn func(StreamEvent)) error {
	body, err := json.Marshal(specs)
	if err != nil {
		return fmt.Errorf("serve: encoding batch: %w", err)
	}
	resp, err := c.post(ctx, StreamPath, body, true)
	if err != nil {
		return fmt.Errorf("serve: %s: %w", c.Addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		buf, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return fmt.Errorf("serve: %w", statusError(resp, buf))
	}
	return readStream(resp.Body, len(specs), fn)
}

// RunAll executes a Spec batch remotely and returns records positionally,
// mirroring run.Runner.RunAll: the returned error joins every per-spec
// failure, and successful entries are valid regardless. A batch of several
// Specs that the server answers with 429 is split at once, not retried (a
// batch larger than a server's bounded queue is rejected however often it
// is resent): RunAll halves the sub-batch size until the server admits it
// and keeps that size for the rest of the batch. A single Spec's 429 gets
// the usual retries, so the same sweep runs against any fleet configuration.
func (c *Client) RunAll(ctx context.Context, specs []run.Spec) ([]run.Record, error) {
	recs := make([]run.Record, len(specs))
	var errs []error
	for lo, size := 0, len(specs); lo < len(specs); {
		hi := min(lo+size, len(specs))
		n := hi - lo
		br, err := c.runBatch(ctx, specs[lo:hi], n == 1)
		var se *StatusError
		if n > 1 && errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
			size = (n + 1) / 2
			continue
		}
		if err != nil {
			return nil, err
		}
		for i := lo; i < hi; i++ {
			switch rec, msg := br.Records[i-lo], br.Errors[i-lo]; {
			case msg != "":
				errs = append(errs, fmt.Errorf("spec %d (%s): %s", i, specs[i].Key(), msg))
			case rec == nil:
				errs = append(errs, fmt.Errorf("spec %d (%s): server returned neither record nor error", i, specs[i].Key()))
			default:
				recs[i] = *rec
			}
		}
		lo = hi
	}
	return recs, errors.Join(errs...)
}

// Healthz fetches the server's health counters. Probes are not retried —
// health checking wants the current truth, not an eventually successful one.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Addr+HealthPath, nil)
	if err != nil {
		return Health{}, fmt.Errorf("serve: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return Health{}, fmt.Errorf("serve: %s: %w", c.Addr, err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return Health{}, fmt.Errorf("serve: decoding health: %w", err)
	}
	return h, nil
}
