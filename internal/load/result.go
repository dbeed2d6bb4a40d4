package load

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// collector accumulates one traffic series (a step, or an endpoint across
// the whole run). Counters are atomic; the latency samples are kept whole
// under a mutex, so the percentiles are exact order statistics.
type collector struct {
	mu         sync.Mutex
	latencies  []time.Duration
	requests   atomic.Int64
	errors     atomic.Int64
	rejected   atomic.Int64
	dropped    atomic.Int64
	specs      atomic.Int64
	records    atomic.Int64
	specErrors atomic.Int64
}

// outcome is one finished (or refused) request as the collectors see it.
type outcome struct {
	latency    time.Duration // from the request's scheduled launch
	rejected   bool          // 429 admission pushback
	failed     bool          // transport error or any other non-200
	specs      int
	records    int
	specErrors int
}

// observe folds one outcome in. Only successful requests contribute to the
// latency percentiles — a 429 answers in microseconds and a transport error
// in whatever the failure took, and mixing either into the distribution
// would flatter or slander the server for reasons that are not latency.
func (c *collector) observe(o outcome) {
	c.requests.Add(1)
	switch {
	case o.rejected:
		c.rejected.Add(1)
	case o.failed:
		c.errors.Add(1)
	default:
		c.mu.Lock()
		c.latencies = append(c.latencies, o.latency)
		c.mu.Unlock()
		c.specs.Add(int64(o.specs))
		c.records.Add(int64(o.records))
		c.specErrors.Add(int64(o.specErrors))
	}
}

// TrafficStats is one measured traffic series in the artifact.
type TrafficStats struct {
	// Requests counts everything sent in the measured window (successes,
	// errors and 429s; not drops).
	Requests int64 `json:"requests"`
	// Errors counts transport failures and non-200/non-429 statuses.
	Errors int64 `json:"errors"`
	// Rejected counts 429 admission-control rejections.
	Rejected int64 `json:"rejected_429"`
	// Dropped counts launches the harness refused because MaxInflight was
	// reached — the client-side saturation signal.
	Dropped int64 `json:"dropped"`
	// Specs/Records/SpecErrors count individual Specs inside successful
	// requests: submitted, answered with a Record, answered with a per-spec
	// error.
	Specs      int64 `json:"specs"`
	Records    int64 `json:"records"`
	SpecErrors int64 `json:"spec_errors"`
	// AchievedRPS is requests sent per second of the measured window — under
	// open-loop pacing it tracks the target unless the harness dropped.
	AchievedRPS float64 `json:"achieved_rps"`
	// RecordsPerSecond is the delivered throughput in Records per second.
	RecordsPerSecond float64 `json:"throughput_records_per_s"`
	// Latency over successful requests, milliseconds, each timed from its
	// scheduled launch: nearest-rank percentiles and the mean.
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// stats snapshots the collector over a measured window.
func (c *collector) stats(window time.Duration) TrafficStats {
	c.mu.Lock()
	lat := slices.Clone(c.latencies)
	c.mu.Unlock()
	slices.Sort(lat)
	s := TrafficStats{
		Requests:   c.requests.Load(),
		Errors:     c.errors.Load(),
		Rejected:   c.rejected.Load(),
		Dropped:    c.dropped.Load(),
		Specs:      c.specs.Load(),
		Records:    c.records.Load(),
		SpecErrors: c.specErrors.Load(),
		P50Ms:      ms(percentile(lat, 0.50)),
		P95Ms:      ms(percentile(lat, 0.95)),
		P99Ms:      ms(percentile(lat, 0.99)),
	}
	if len(lat) > 0 {
		var sum time.Duration
		for _, d := range lat {
			sum += d
		}
		s.MeanMs = ms(sum) / float64(len(lat))
	}
	if secs := window.Seconds(); secs > 0 {
		s.AchievedRPS = float64(s.Requests) / secs
		s.RecordsPerSecond = float64(s.Records) / secs
	}
	return s
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted
// samples: the smallest sample with at least q of the samples at or below
// it. It returns 0 for no samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(int(math.Ceil(q*float64(len(sorted))))-1, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// StepStats is one point of the saturation curve.
type StepStats struct {
	TargetRPS float64 `json:"target_rps"`
	DurationS float64 `json:"duration_s"`
	TrafficStats
}

// ConfigEcho is the artifact's record of how the run was parameterized —
// enough to reproduce it exactly (the schedule is a pure function of these).
type ConfigEcho struct {
	Addr        string  `json:"addr"`
	Seed        int64   `json:"seed"`
	Steps       string  `json:"steps_rps"`
	StepS       float64 `json:"step_duration_s"`
	WarmupS     float64 `json:"warmup_s"`
	Mix         Mix     `json:"mix"`
	BatchSizes  string  `json:"batch_sizes"`
	Workloads   string  `json:"workloads"`
	StreamRatio float64 `json:"stream_ratio"`
	Scale       float64 `json:"scale"`
	Platform    string  `json:"platform"`
	Procs       int     `json:"procs"`
	Validate    bool    `json:"validate"`
	MaxInflight int     `json:"max_inflight"`
}

// Result is the artifact c3iload emits: the config echo, per-endpoint
// aggregates over every measured window, and the stepped-RPS curve.
type Result struct {
	Config    ConfigEcho              `json:"config"`
	Endpoints map[string]TrafficStats `json:"endpoints"`
	Curve     []StepStats             `json:"curve"`
}

// LatencyFamily flattens the per-endpoint percentiles into the benchgate
// serve_latency family: "<endpoint>|p50_ms" → milliseconds, for every
// endpoint that measured at least one successful request. These keys are
// what a committed serving baseline gates on.
func (r *Result) LatencyFamily() map[string]float64 {
	out := map[string]float64{}
	for _, ep := range sortedEndpoints(r.Endpoints) {
		st := r.Endpoints[ep]
		if st.Requests-st.Errors-st.Rejected <= 0 {
			continue
		}
		out[ep+"|p50_ms"] = st.P50Ms
		out[ep+"|p95_ms"] = st.P95Ms
		out[ep+"|p99_ms"] = st.P99Ms
	}
	return out
}

// WriteJSON writes the artifact as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the artifact to a path ("-" = stdout).
func (r *Result) WriteFile(path string) error {
	if path == "-" {
		return r.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("load: writing %s: %w", path, err)
	}
	return f.Close()
}

// ParseResult reads an artifact back (benchgate's serve_latency extractor).
// An artifact with no measured endpoints is rejected: gating on it would
// compare nothing and pass.
func ParseResult(rd io.Reader) (*Result, error) {
	var r Result
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("load: decoding artifact: %w", err)
	}
	if len(r.Curve) == 0 {
		return nil, fmt.Errorf("load: artifact has no saturation curve")
	}
	if len(r.LatencyFamily()) == 0 {
		return nil, fmt.Errorf("load: artifact measured no successful requests on any endpoint")
	}
	return &r, nil
}
