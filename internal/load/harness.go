package load

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// Harness drives one load run against a serving endpoint.
type Harness struct {
	cfg    Config
	client *serve.Client
	// log, when non-nil, receives one progress line per step.
	log func(format string, args ...any)
}

// New validates the config and builds the harness. The underlying
// serve.Client runs with retries disabled: the harness measures the server
// as it is — a 429 is a data point for the artifact, not something to paper
// over with backoff that would close the open loop.
func New(cfg Config, log func(format string, args ...any)) (*Harness, error) {
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	return &Harness{
		cfg:    cfg,
		client: &serve.Client{Addr: cfg.Addr, Retries: -1, Timeout: cfg.Timeout},
		log:    log,
	}, nil
}

func (h *Harness) logf(format string, args ...any) {
	if h.log != nil {
		h.log(format, args...)
	}
}

// Run executes every step and assembles the artifact. The generator persists
// across steps, so later steps inherit the earlier steps' cached pool and
// warm families — a saturation sweep measures one progressively warmed
// server, the way sustained production traffic would.
func (h *Harness) Run(ctx context.Context) (*Result, error) {
	if _, err := h.client.Healthz(ctx); err != nil {
		return nil, fmt.Errorf("load: target %s is not healthy: %w", h.cfg.Addr, err)
	}
	gen := newGenerator(&h.cfg)
	endpoints := map[string]*collector{
		serve.RunPath:    newCollector(),
		serve.StreamPath: newCollector(),
	}
	result := &Result{
		Config: ConfigEcho{
			Addr:        h.cfg.Addr,
			Seed:        h.cfg.Seed,
			Steps:       describeSteps(h.cfg.Steps),
			StepS:       h.cfg.StepDuration.Seconds(),
			WarmupS:     h.cfg.Warmup.Seconds(),
			Mix:         h.cfg.Mix,
			BatchSizes:  describeDist(h.cfg.BatchSizes),
			Workloads:   describeDist(h.cfg.Workloads),
			StreamRatio: h.cfg.StreamRatio,
			Scale:       h.cfg.Scale,
			Platform:    h.cfg.Platform,
			Procs:       h.cfg.Procs,
			Validate:    h.cfg.Validate,
			MaxInflight: h.cfg.MaxInflight,
		},
		Endpoints: map[string]TrafficStats{},
	}
	var measured time.Duration
	for _, rps := range h.cfg.Steps {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		step, window := h.runStep(ctx, gen, rps, endpoints)
		measured += window
		result.Curve = append(result.Curve, step)
		h.logf("step %6.1f rps: achieved %6.1f, p50 %.2fms p95 %.2fms p99 %.2fms, %d err, %d rejected, %d dropped",
			rps, step.AchievedRPS, step.P50Ms, step.P95Ms, step.P99Ms,
			step.Errors, step.Rejected, step.Dropped)
	}
	for ep, col := range endpoints {
		if st := col.stats(measured); st.Requests > 0 || st.Dropped > 0 {
			result.Endpoints[ep] = st
		}
	}
	return result, nil
}

// runStep paces one step open-loop at the target RPS: launch times follow
// the fixed schedule start + n·interval regardless of outstanding requests
// (arrivals do not wait for completions), with MaxInflight as the harness's
// own memory bound — an over-limit launch is counted as dropped and skipped.
// Requests launched during the warmup lead-in are sent but not recorded. The
// returned window is the measured send span the step's rates are computed
// over.
func (h *Harness) runStep(ctx context.Context, gen *generator, rps float64, endpoints map[string]*collector) (StepStats, time.Duration) {
	interval := float64(time.Second) / rps
	col := newCollector()
	tokens := make(chan struct{}, h.cfg.MaxInflight)
	var wg sync.WaitGroup
	start := time.Now() //c3ivet:ignore determinism the load harness measures real wall-clock latency by design
	warmEnd := start.Add(h.cfg.Warmup)
	deadline := warmEnd.Add(h.cfg.StepDuration)
	for n := 0; ; n++ {
		target := start.Add(time.Duration(float64(n) * interval))
		if target.After(deadline) || ctx.Err() != nil {
			break
		}
		if d := time.Until(target); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		req := gen.next()
		recorded := !time.Now().Before(warmEnd) //c3ivet:ignore determinism warmup cutoff is a wall-clock decision, not a model input
		select {
		case tokens <- struct{}{}:
		default:
			if recorded {
				col.dropped.Add(1)
				endpoints[req.endpoint].dropped.Add(1)
			}
			continue
		}
		wg.Add(1)
		go func(req request, recorded bool) {
			defer wg.Done()
			defer func() { <-tokens }()
			o := h.send(ctx, req)
			if recorded {
				col.observe(o)
				endpoints[req.endpoint].observe(o)
			}
		}(req, recorded)
	}
	window := time.Since(warmEnd) //c3ivet:ignore determinism the measurement window is host wall-clock by design
	if window <= 0 {
		window = time.Nanosecond
	}
	wg.Wait()
	return StepStats{
		TargetRPS:    rps,
		DurationS:    window.Seconds(),
		TrafficStats: col.stats(window),
	}, window
}

// send issues one request on its transport and classifies the outcome.
// Latency spans the whole exchange — for the stream, until the last NDJSON
// event arrives, since a Record still in flight is not yet served.
func (h *Harness) send(ctx context.Context, req request) outcome {
	o := outcome{specs: len(req.specs)}
	t0 := time.Now() //c3ivet:ignore determinism per-request latency measurement is the harness output
	var err error
	if req.endpoint == serve.StreamPath {
		err = h.client.RunStream(ctx, req.specs, func(ev serve.StreamEvent) {
			if ev.Error != "" {
				o.specErrors++
			} else {
				o.records++
			}
		})
	} else {
		var br serve.BatchResponse
		if br, err = h.client.RunBatch(ctx, req.specs); err == nil {
			for i := range br.Errors {
				switch {
				case br.Errors[i] != "":
					o.specErrors++
				case br.Records[i] != nil:
					o.records++
				}
			}
		}
	}
	o.latency = time.Since(t0) //c3ivet:ignore determinism per-request latency measurement is the harness output
	if err != nil {
		var se *serve.StatusError
		if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
			o.rejected = true
		} else {
			o.failed = true
		}
		o.records, o.specErrors = 0, 0
	}
	return o
}
