package serve

import (
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// Instrument wraps a tier's handler in the request middleware both serving
// tiers share: a per-endpoint latency histogram (seconds), a request counter
// labeled by status class (requests) and, when inflight is not empty, a
// per-endpoint in-flight gauge. The metric names are parameters, so c3iserve
// publishes its serve_* series and c3irouter its router_* series from this
// one implementation.
//
// The path label is bounded: the run API's endpoints by name, each prefix in
// subtrees (PprofPrefix, on the serving tier) as one label for its whole
// subtree, and anything else as "other", so arbitrary request paths cannot
// grow unbounded metric series.
func Instrument(next http.Handler, reg *obs.Registry, requests, seconds, inflight string, subtrees ...string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		labels := obs.Labels{"path": endpointLabel(r.URL.Path, subtrees)}
		if inflight != "" {
			gauge := reg.Gauge(inflight, labels)
			gauge.Inc()
			defer gauge.Dec()
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		reg.Histogram(seconds, labels, obs.DefLatencyBuckets).Observe(time.Since(start).Seconds())
		reg.Counter(requests, obs.Labels{"path": labels["path"], "code": statusClass(sw.status)}).Inc()
	})
}

// endpointLabel folds a request path onto the bounded label set.
func endpointLabel(path string, subtrees []string) string {
	switch path {
	case RunPath, StreamPath, HealthPath, MetricsPath:
		return path
	}
	for _, prefix := range subtrees {
		if strings.HasPrefix(path, prefix) {
			return prefix
		}
	}
	return "other"
}

// statusWriter captures the response status for the request counter. Unwrap
// lets http.ResponseController reach the connection's writer through it, so
// the stream handlers can flush each event.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// statusClass folds a status code to its class label.
func statusClass(code int) string {
	switch {
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}
