// Command c3iserve serves the run API over HTTP/JSON: POST a batch of
// run.Spec values to /v1/run and get positional run.Records back, or to
// /v1/run/stream to get NDJSON events as each Record completes, executed
// through one shared, cache-deduplicated run.Runner with per-workload worker
// pools (shard affinity: the goroutines running a workload's Specs are the
// ones whose memoized scenario suites are already warm). Each pool's queue is
// bounded (-queue); a full queue answers 429 with Retry-After instead of
// blocking the listener. With -store, every computed Record also persists to
// a disk store keyed by its canonical Spec key, so identical Specs are
// answered without recomputation across requests, processes and restarts —
// and several c3iserve processes sharing one -store directory become
// replicas, fronted by c3irouter.
//
// Usage:
//
//	c3iserve -addr :8642 -store ./c3iserve-store     # serve, with persistence
//	c3iserve -addr :8642                             # serve, in-memory caches only
//	c3iserve -addr :8642 -pprof                      # also mount /debug/pprof/
//	c3iserve -client -addr http://host:8642 < batch.json
//	                                                 # POST a Spec batch from stdin,
//	                                                 # print the positional
//	                                                 # records/errors response
//
// GET /metrics serves every run_*/serve_* series in Prometheus text format
// (per-workload execution latency histograms, cache/store counters,
// per-endpoint request counts/latency/in-flight, pool worker and queue-depth
// gauges); GET /healthz carries the same snapshot as JSON plus the
// per-workload pool shape. With -pprof, net/http/pprof is mounted under
// /debug/pprof/ — `go tool pprof http://host:8642/debug/pprof/profile`
// profiles the live serving process.
//
// SIGINT/SIGTERM trigger a graceful shutdown: listeners close immediately,
// in-flight batches drain for up to -drain, then the worker pools stop.
// Client mode exits non-zero if any spec in the batch failed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "repro/internal/c3i/hypothesis" // register the Hypothesis Testing workload
	_ "repro/internal/c3i/plottrack"  // register the Plot-Track Assignment workload
	_ "repro/internal/c3i/route"      // register the Route Optimization workload
	_ "repro/internal/c3i/terrain"    // register the Terrain Masking workload
	_ "repro/internal/c3i/threat"     // register the Threat Analysis workload
	"repro/internal/run"
	"repro/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8642", "listen address (server mode) or base URL (client mode)")
		store   = flag.String("store", "", "record store directory; empty = in-memory caches only")
		workers = flag.Int("workers", 0, "workers per workload pool; < 1 means GOMAXPROCS")
		queue   = flag.Int("queue", 0, "queued specs per workload pool before 429; < 1 means 4x workers")
		drain   = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain timeout for in-flight batches")
		client  = flag.Bool("client", false, "client mode: POST a Spec batch (JSON array) from stdin to -addr")
		pprofOn = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		slow    = flag.Duration("slowdown", 0, "inject an artificial delay into every run request (fault injection for latency-gate validation)")
	)
	flag.Parse()

	if *client {
		os.Exit(runClient(*addr))
	}
	if err := runServer(*addr, *store, *workers, *queue, *drain, *pprofOn, *slow); err != nil {
		fmt.Fprintf(os.Stderr, "c3iserve: %v\n", err)
		os.Exit(1)
	}
}

// runServer blocks until the listener fails or a shutdown signal drains it.
func runServer(addr, storeDir string, workers, queue int, drain time.Duration, pprofOn bool, slow time.Duration) error {
	// The server only calls Runner.Run from its workload pools, so the
	// Runner's own RunAll pool size is unused.
	runner := run.NewRunner(0)
	var ds *run.DiskStore
	if storeDir != "" {
		var err error
		ds, err = run.NewDiskStore(storeDir)
		if err != nil {
			return err
		}
		runner.SetStore(ds)
		fmt.Fprintf(os.Stderr, "c3iserve: record store %s (%d records)\n", ds.Dir(), ds.Len())
	} else {
		fmt.Fprintln(os.Stderr, "c3iserve: no -store; records are cached in-memory only")
	}
	if slow > 0 {
		fmt.Fprintf(os.Stderr, "c3iserve: FAULT INJECTION: every run request is delayed by %s\n", slow)
	}
	srv := serve.New(runner, serve.Options{
		WorkersPerWorkload: workers, QueueDepth: queue, Store: ds, Pprof: pprofOn, Slowdown: slow,
	})
	hs := &http.Server{Addr: addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		endpoints := fmt.Sprintf("POST %s, POST %s, GET %s, GET %s", serve.RunPath, serve.StreamPath, serve.HealthPath, serve.MetricsPath)
		if pprofOn {
			endpoints += ", GET " + serve.PprofPrefix
		}
		fmt.Fprintf(os.Stderr, "c3iserve: listening on %s (%s)\n", addr, endpoints)
		errCh <- hs.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(os.Stderr, "c3iserve: shutting down, draining in-flight batches (up to %s)\n", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := hs.Shutdown(sctx)
	srv.Close()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3iserve: drain timeout exceeded; some batches were cut off")
	} else {
		fmt.Fprintln(os.Stderr, "c3iserve: drained")
	}
	return nil
}

// runClient POSTs the stdin batch and prints the server's positional
// response verbatim ({"records": […], "errors": […]}) — a failed spec stays
// a null record plus its error string, never a fabricated zero-value record.
// Per-spec failures also go to stderr; the exit status is 1 if any spec
// failed, 2 for unusable input.
func runClient(addr string) int {
	var specs []run.Spec
	if err := json.NewDecoder(os.Stdin).Decode(&specs); err != nil {
		fmt.Fprintf(os.Stderr, "c3iserve: stdin must be a JSON array of run Specs: %v\n", err)
		return 2
	}
	c := &serve.Client{Addr: addr}
	br, err := c.RunBatch(context.Background(), specs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "c3iserve: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if encErr := enc.Encode(br); encErr != nil {
		fmt.Fprintf(os.Stderr, "c3iserve: encoding response: %v\n", encErr)
		return 1
	}
	failed := 0
	for i, e := range br.Errors {
		if e != "" {
			fmt.Fprintf(os.Stderr, "c3iserve: spec %d: %s\n", i, e)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
