// Command c3irouter is the sharded front tier over c3iserve: it serves the
// identical run API (POST /v1/run, POST /v1/run/stream, GET /healthz, GET
// /metrics) and partitions every batch's Specs across a configured set of
// c3iserve shard URLs — per-workload constraints first, rendezvous hashing
// on the canonical Spec key among a workload's replicas — with health-probed
// failover: a sub-batch whose shard dies is re-partitioned onto the live
// candidates and the batch still completes. Point the shards at one shared
// -store directory and a failover costs zero recomputation: the replica
// answers the dead shard's keys from the record store.
//
// Usage:
//
//	c3irouter -addr :8643 -shards http://h1:8642,http://h2:8642
//	c3irouter -addr :8643 -shards 'http://h1:8642=threat-analysis+terrain-masking,http://h2:8642'
//	                              # h1 only serves the two named workloads;
//	                              # h2 serves everything
//	c3ibench -all -remote http://localhost:8643
//	                              # the router is wire-identical to a single
//	                              # c3iserve — same tables, same bytes
//
// A shard entry is a base URL, optionally followed by "=" and a
// "+"-separated list of workload names constraining what it serves.
// GET /healthz reports the per-shard up/degraded/down state machine; GET
// /metrics serves router_shard_requests_total, router_shard_failovers_total
// and router_shard_up per shard in Prometheus text format.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, in-flight
// batches drain for up to -drain, then the health probes stop.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	// The router ranks shards by Spec.Key, which is canonical only for a
	// registered workload: register all five, as c3iserve does.
	_ "repro/internal/c3i/hypothesis"
	_ "repro/internal/c3i/plottrack"
	_ "repro/internal/c3i/route"
	"repro/internal/c3i/suite"
	_ "repro/internal/c3i/terrain"
	_ "repro/internal/c3i/threat"
	"repro/internal/router"
	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8643", "listen address")
		shards       = flag.String("shards", "", `comma-separated shard URLs, each optionally "url=workload+workload" constrained`)
		probe        = flag.Duration("probe", 2*time.Second, "health-probe interval")
		probeTimeout = flag.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
		downAfter    = flag.Int("down-after", 3, "consecutive failures before a shard is considered down")
		shardTimeout = flag.Duration("shard-timeout", 0, "per-sub-batch request timeout; 0 = none (cold sweeps run for minutes)")
		drain        = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain timeout for in-flight batches")
	)
	flag.Parse()

	cfgs, err := parseShards(*shards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "c3irouter: %v\n", err)
		os.Exit(2)
	}
	rt, err := router.New(router.Options{
		Shards:        cfgs,
		ProbeInterval: *probe,
		ProbeTimeout:  *probeTimeout,
		DownAfter:     *downAfter,
		ShardTimeout:  *shardTimeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "c3irouter: %v\n", err)
		os.Exit(2)
	}
	if err := serveRouter(rt, *addr, cfgs, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "c3irouter: %v\n", err)
		os.Exit(1)
	}
}

// parseShards decodes the -shards syntax: "url[,url...]" with an optional
// "=wl+wl" workload constraint per entry. A constraint names registered
// workloads only: a misspelled one would leave its shard serving nothing.
func parseShards(s string) ([]router.Shard, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-shards is required (comma-separated c3iserve base URLs)")
	}
	var out []router.Shard
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		url, constraint, constrained := strings.Cut(entry, "=")
		sh := router.Shard{URL: url}
		if constrained {
			for _, w := range strings.Split(constraint, "+") {
				if w = strings.TrimSpace(w); w != "" {
					if _, err := suite.Lookup(w); err != nil {
						return nil, fmt.Errorf("shard %q: %w", entry, err)
					}
					sh.Workloads = append(sh.Workloads, w)
				}
			}
			if len(sh.Workloads) == 0 {
				return nil, fmt.Errorf("shard %q: empty workload constraint", entry)
			}
		}
		out = append(out, sh)
	}
	return out, nil
}

// serveRouter blocks until the listener fails or a shutdown signal drains it.
func serveRouter(rt *router.Router, addr string, cfgs []router.Shard, drain time.Duration) error {
	rt.Start()
	hs := &http.Server{Addr: addr, Handler: rt}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		for _, sh := range cfgs {
			constraint := "all workloads"
			if len(sh.Workloads) > 0 {
				constraint = strings.Join(sh.Workloads, ", ")
			}
			fmt.Fprintf(os.Stderr, "c3irouter: shard %s (%s)\n", sh.URL, constraint)
		}
		fmt.Fprintf(os.Stderr, "c3irouter: listening on %s (POST %s, POST %s, GET %s, GET %s)\n",
			addr, serve.RunPath, serve.StreamPath, serve.HealthPath, serve.MetricsPath)
		errCh <- hs.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		rt.Close()
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(os.Stderr, "c3irouter: shutting down, draining in-flight batches (up to %s)\n", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := hs.Shutdown(sctx)
	rt.Close()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3irouter: drain timeout exceeded; some batches were cut off")
	} else {
		fmt.Fprintln(os.Stderr, "c3irouter: drained")
	}
	return nil
}
