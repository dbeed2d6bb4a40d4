package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
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

// admissionServer answers 429 with the given Retry-After to any batch of
// more than cap Specs, as a c3iserve whose pool queue is smaller than a whole
// sweep does, and echoes each admitted Spec's key otherwise. It records the
// sizes of the batches it rejected and admitted.
func admissionServer(t *testing.T, cap int, retryAfter string) (ts *httptest.Server, rejected, admitted *[]int) {
	t.Helper()
	var mu sync.Mutex
	rejected, admitted = new([]int), new([]int)
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var specs []run.Spec
		if err := json.NewDecoder(r.Body).Decode(&specs); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		full := len(specs) > cap
		if full {
			*rejected = append(*rejected, len(specs))
		} else {
			*admitted = append(*admitted, len(specs))
		}
		mu.Unlock()
		if full {
			w.Header().Set("Retry-After", retryAfter)
			http.Error(w, "pool queue is full", http.StatusTooManyRequests)
			return
		}
		br := serve.BatchResponse{Records: make([]*run.Record, len(specs)), Errors: make([]string, len(specs))}
		for i, sp := range specs {
			br.Records[i] = &run.Record{Key: sp.Key()}
		}
		_ = json.NewEncoder(w).Encode(br)
	}))
	t.Cleanup(ts.Close)
	return ts, rejected, admitted
}

func TestClientRunAllShrinksBatchesUntilAdmitted(t *testing.T) {
	// 81 specs against a server that admits at most 6 at a time and asks
	// for the Retry-After c3iserve sends: RunAll must halve 81→41→21→11→6
	// on the first 429 of each size, without retrying or waiting, and then
	// deliver every record, in order.
	specs := make([]run.Spec, 81)
	for i := range specs {
		specs[i] = run.Spec{Workload: "w", Variant: "v", Platform: "alpha",
			Procs: 1, Scale: float64(i+1) / 100}
	}
	ts, rejected, admitted := admissionServer(t, 6, "1")
	reg := obs.NewRegistry()
	cl := &serve.Client{Addr: ts.URL, HTTP: ts.Client(), Metrics: reg}
	recs, err := cl.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(specs) {
		t.Fatalf("got %d records, want %d", len(recs), len(specs))
	}
	for i, rec := range recs {
		if rec.Key != specs[i].Key() {
			t.Fatalf("record %d out of order: %q", i, rec.Key)
		}
	}
	if got, want := *rejected, []int{81, 41, 21, 11}; !slices.Equal(got, want) {
		t.Errorf("rejected batch sizes %v, want %v (each size once)", got, want)
	}
	want := []int{6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 3}
	if !slices.Equal(*admitted, want) {
		t.Errorf("admitted batches %v, want %v (81 halved to 6)", *admitted, want)
	}
	retries := reg.Counter(serve.MetricClientRetries, obs.Labels{"path": serve.RunPath, "reason": "status"}).Value()
	if retries != 0 {
		t.Errorf("%d retries, want 0: a rejected batch of several Specs is halved, not resent", retries)
	}

	// A 429 for a single Spec is retried like any busy answer, then
	// surfaced: it is a real failure, not an admission loop.
	ts, rejected, _ = admissionServer(t, 0, "0")
	cl = &serve.Client{Addr: ts.URL, HTTP: ts.Client(), RetryBackoff: time.Millisecond}
	_, err = cl.RunAll(context.Background(), specs[:2])
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Errorf("cap 0: err = %v, want the 429 surfaced", err)
	}
	if got, want := *rejected, []int{2, 1, 1, 1, 1}; !slices.Equal(got, want) {
		t.Errorf("cap 0: rejected batch sizes %v, want %v (one Spec tried 1+%d times)",
			got, want, serve.DefaultRetries)
	}
}

func TestClientRunAllSplitsBatchLargerThanQueue(t *testing.T) {
	// A real server with one worker and a two-Spec queue cannot admit a
	// 40-Spec batch whole: RunAll splits it until the pool takes it and
	// returns the same Records a local Runner computes, in order.
	runner := run.NewRunner(0)
	srv := serve.New(runner, serve.Options{WorkersPerWorkload: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	specs := make([]run.Spec, 40)
	for i := range specs {
		specs[i] = hookSpec(1000 + i)
	}
	client := &serve.Client{Addr: ts.URL, HTTP: ts.Client()}
	recs, err := client.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := run.NewRunner(1).RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if recs[i].Key != want[i].Key || recs[i].Checksum != want[i].Checksum ||
			recs[i].ModelSeconds != want[i].ModelSeconds {
			t.Errorf("record %d = %s/%v/%g, want %s/%v/%g", i, recs[i].Key, recs[i].Checksum,
				recs[i].ModelSeconds, want[i].Key, want[i].Checksum, want[i].ModelSeconds)
		}
	}
	rejected := runner.Metrics().Counter(serve.MetricRejected, obs.Labels{"workload": "serve-hook"}).Value()
	if rejected == 0 {
		t.Error("the server admitted the whole batch; the queue bound was not exercised")
	}
}
