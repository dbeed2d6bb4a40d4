package serve

import (
	"io"
	"net/http"
	"time"
)

// HTTPClientForTest exposes httpClient to the regression tests: which
// transport a client configuration resolves to is part of the Client
// contract (explicit override > Timeout > shared default).
func (c *Client) HTTPClientForTest() *http.Client { return c.httpClient() }

// RetryDelayForTest exposes the backoff computation so its bounds (doubling,
// cap, jitter envelope, Retry-After stretch) are table-testable.
func RetryDelayForTest(base time.Duration, attempt int, retryAfter string) time.Duration {
	return retryDelay(base, attempt, retryAfter)
}

// RetryAfterDelayForTest exposes the Retry-After parser with an injectable
// clock, so the HTTP-date form is testable deterministically.
func RetryAfterDelayForTest(retryAfter string, now time.Time) (time.Duration, bool) {
	return retryAfterDelay(retryAfter, now)
}

// The retry policy's caps, exported for the bounds tests.
const (
	MaxRetryBackoffForTest = maxRetryBackoff
	MaxRetryAfterForTest   = maxRetryAfter
)

// ReadStreamForTest exposes the NDJSON stream reader to the fuzz target.
func ReadStreamForTest(r io.Reader, n int, fn func(StreamEvent)) error { return readStream(r, n, fn) }
