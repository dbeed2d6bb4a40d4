package serve_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/run"
	"repro/internal/serve"
)

// TestRetryDelayBounds pins the backoff envelope: the pre-jitter delay
// doubles per attempt from the base until the cap, and jitter adds at most
// 50% on top. The jitter is random, so each case is sampled repeatedly and
// asserted against its [deterministic, deterministic*1.5] envelope.
func TestRetryDelayBounds(t *testing.T) {
	base := 100 * time.Millisecond
	cases := []struct {
		name    string
		attempt int
		want    time.Duration // deterministic pre-jitter delay
	}{
		{"first retry", 0, 100 * time.Millisecond},
		{"doubles", 1, 200 * time.Millisecond},
		{"doubles again", 2, 400 * time.Millisecond},
		{"keeps doubling", 4, 1600 * time.Millisecond},
		{"capped", 5, serve.MaxRetryBackoffForTest}, // 3200ms would exceed the 3s cap
		{"stays capped", 20, serve.MaxRetryBackoffForTest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				d := serve.RetryDelayForTest(base, tc.attempt, "")
				lo, hi := tc.want, tc.want+tc.want/2
				if d < lo || d > hi {
					t.Fatalf("attempt %d: delay %v outside [%v, %v]", tc.attempt, d, lo, hi)
				}
			}
		})
	}
}

// TestRetryDelayRetryAfterStretch pins the header interaction: a Retry-After
// longer than the jittered backoff stretches the delay to it, but never past
// the maxRetryAfter cap, and a shorter (or garbled) one changes nothing.
func TestRetryDelayRetryAfterStretch(t *testing.T) {
	base := 10 * time.Millisecond
	// "4" seconds dwarfs a 10–15ms jittered backoff: the delay must be
	// stretched to exactly 4s.
	if d := serve.RetryDelayForTest(base, 0, "4"); d != 4*time.Second {
		t.Errorf("Retry-After 4 = %v, want 4s", d)
	}
	// "3600" is capped: a server cannot park a client for an hour.
	if d := serve.RetryDelayForTest(base, 0, "3600"); d != serve.MaxRetryAfterForTest {
		t.Errorf("Retry-After 3600 = %v, want the %v cap", d, serve.MaxRetryAfterForTest)
	}
	// A Retry-After below the backoff leaves the backoff envelope intact.
	if d := serve.RetryDelayForTest(time.Second, 3, "1"); d < 3*time.Second {
		t.Errorf("short Retry-After shrank the backoff to %v", d)
	}
	// Garbage is ignored, not fatal and not a stall.
	for _, garbled := range []string{"soon", "-5", "1.5", "Tue, 29 Feb"} {
		if d := serve.RetryDelayForTest(base, 0, garbled); d > 15*time.Millisecond {
			t.Errorf("garbled Retry-After %q stretched the delay to %v", garbled, d)
		}
	}
}

// TestRetryAfterDelayForms table-tests the RFC 9110 header parser over both
// allowed forms — delta-seconds and HTTP-date — against a fixed clock.
func TestRetryAfterDelayForms(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name  string
		value string
		want  time.Duration
		ok    bool
	}{
		{"empty", "", 0, false},
		{"delta seconds", "2", 2 * time.Second, true},
		{"delta zero", "0", 0, true},
		{"delta negative", "-1", 0, false},
		{"delta capped", "120", serve.MaxRetryAfterForTest, true},
		{"http date ahead", now.Add(3 * time.Second).Format(http.TimeFormat), 3 * time.Second, true},
		{"http date capped", now.Add(time.Hour).Format(http.TimeFormat), serve.MaxRetryAfterForTest, true},
		{"http date past", now.Add(-time.Minute).Format(http.TimeFormat), 0, true},
		// RFC 9110 keeps the two obsolete date formats parseable.
		{"rfc850 date", now.Add(4 * time.Second).Format("Monday, 02-Jan-06 15:04:05 GMT"), 4 * time.Second, true},
		{"asctime date", now.Add(4 * time.Second).Format(time.ANSIC), 4 * time.Second, true},
		{"garbage", "in a bit", 0, false},
		{"float", "1.5", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, ok := serve.RetryAfterDelayForTest(tc.value, now)
			if ok != tc.ok || d != tc.want {
				t.Errorf("retryAfterDelay(%q) = (%v, %v), want (%v, %v)", tc.value, d, ok, tc.want, tc.ok)
			}
		})
	}
}

// TestClientHonorsRetryAfterDate exercises the date form end to end: a 429
// carrying an HTTP-date Retry-After, then a 200. The client must wait at
// least roughly the advertised second before the retry that succeeds.
func TestClientHonorsRetryAfterDate(t *testing.T) {
	var times []time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		times = append(times, time.Now())
		if len(times) == 1 {
			// The date format carries whole seconds only, so advertise a
			// whole second two seconds past the current one: wherever in its
			// second the request lands, the date stays more than 1s ahead.
			w.Header().Set("Retry-After", time.Now().Truncate(time.Second).Add(2*time.Second).UTC().Format(http.TimeFormat))
			serve.WriteJSON(w, http.StatusTooManyRequests, serve.ErrorResponse{Error: "busy"})
			return
		}
		serve.WriteJSON(w, http.StatusOK, serve.BatchResponse{
			Records: []*run.Record{nil}, Errors: []string{"nope"},
		})
	}))
	defer ts.Close()

	c := &serve.Client{Addr: ts.URL, Retries: 1, RetryBackoff: time.Millisecond}
	if _, err := c.RunBatch(context.Background(), []run.Spec{{Workload: "x"}}); err != nil {
		t.Fatalf("RunBatch after retry: %v", err)
	}
	if len(times) != 2 {
		t.Fatalf("server saw %d attempts, want 2", len(times))
	}
	// The advertised date is more than 1s ahead; a wait well past the
	// millisecond backoff proves the date was parsed rather than ignored.
	// 700ms leaves scheduling slack.
	if gap := times[1].Sub(times[0]); gap < 700*time.Millisecond {
		t.Errorf("retry came after %v; the HTTP-date Retry-After was ignored", gap)
	}
}

// TestClientStatusError pins the typed error contract: a non-200 the retry
// policy gave up on unwraps to a StatusError carrying the status code, so
// consumers (the load harness's 429 accounting) never match message text.
func TestClientStatusError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		serve.WriteJSON(w, http.StatusTooManyRequests, serve.ErrorResponse{Error: "queue full"})
	}))
	defer ts.Close()

	c := &serve.Client{Addr: ts.URL, Retries: -1}
	_, err := c.RunBatch(context.Background(), []run.Spec{{Workload: "x"}})
	var se *serve.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("RunBatch error %v does not unwrap to *StatusError", err)
	}
	if se.Code != http.StatusTooManyRequests || se.Msg != "queue full" {
		t.Errorf("StatusError = %+v, want code 429 with the server's message", se)
	}
	if err := c.RunStream(context.Background(), []run.Spec{{Workload: "x"}}, func(serve.StreamEvent) {}); !errors.As(err, &se) {
		t.Errorf("RunStream error %v does not unwrap to *StatusError", err)
	} else if se.Code != http.StatusTooManyRequests {
		t.Errorf("RunStream StatusError code = %d, want 429", se.Code)
	}
}
