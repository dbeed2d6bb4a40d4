// Command perfbench is the repository's benchmark. It runs one named
// workload through the same entry points users hit — experiment tables
// through a run.Runner, or c3irouter over two c3iserve shards — measures it
// for a fixed number of seconds, checks every simulated Record against a
// reference, and prints one JSON result as the last line of standard output.
//
//	bash perfbench/run.sh --workload paper-mta --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs a
// traced pass beside an untraced one and prints the per-layer metrics. See
// README.md for the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef declares one printed metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a run with --trace 0 prints, on every workload.
// BENCHMARK.json declares the same names (a test holds the two together).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
}

// perLayer are the metrics a run with --trace 1 prints, on every workload. A
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"experiments.cells", "count"},
	{"experiments.self_s", "s"},
	{"experiments.concurrency", "ratio"},
	{"run.exec_s", "s"},
	{"run.overhead_us", "us"},
	{"run.executions", "count"},
	{"run.cache_hits", "count"},
	{"run.cache_hit_ratio", "ratio"},
	{"run.store_errors", "count"},
	{"run.wait_s", "s"},
	{"suite.generate_s", "s"},
	{"machine.spawns", "count"},
	{"machine.sync_ops", "count"},
	{"machine.atomic_ops", "count"},
	{"machine.lock_ops", "count"},
	{"machine.barrier_ops", "count"},
	{"machine.mem_refs", "count"},
	{"machine.max_live", "count"},
	{"machine.blocking_op_ns", "ns"},
	{"sim.event_ns", "ns"},
	{"sim.wake_ns", "ns"},
	{"sim.allocs_per_event", "count"},
	{"psq.serve_capped_ns", "ns"},
	{"psq.serve_uncapped_ns", "ns"},
	{"psq.allocs_per_serve", "count"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.ref_ns", "ns"},
	{"cache.burst_stream_ns", "ns"},
	{"cache.burst_resident_ns", "ns"},
	{"cache.allocs_per_burst", "count"},
	{"serve.batch_p50_ms", "ms"},
	{"serve.stream_p50_ms", "ms"},
	{"serve.rejected", "count"},
	{"router.self_p50_ms", "ms"},
	{"router.sub_batches", "count"},
	{"router.failovers", "count"},
	{"client.self_p50_ms", "ms"},
	{"client.batch_p50_ms", "ms"},
	{"client.batch_p99_ms", "ms"},
	{"client.stream_p50_ms", "ms"},
	{"client.stream_p99_ms", "ms"},
	{"client.stream_first_p50_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"gen.requests", "count"},
	{"go.alloc_mb", "MB"},
	{"go.mallocs", "count"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"fail_ratio", "ratio"},
}

// outDir holds everything a run leaves behind (the record store, the span
// dump), relative to the checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// outcome is what a workload run hands back: metric values by name, and the
// operation counts behind `attempted` and `failed`.
type outcome struct {
	values            map[string]float64
	attempted, failed int64
}

// workloads maps each benchmark workload name to its runner.
var workloads = map[string]func(options) (outcome, error){
	"paper-mta": func(o options) (outcome, error) { return runPaper(paperMTA, o) },
	"paper-smp": func(o options) (outcome, error) { return runPaper(paperSMP, o) },
	"serve-mix": runServeMix,
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var seconds, trace int
	digests := flag.String("write-digests", "", "regenerate the reference digest file at this path and exit")
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-mta, paper-smp or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.IntVar(&seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()
	if *digests != "" {
		if err := writeDigests(*digests); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {paper-mta|paper-smp|serve-mix} --seed N --seconds N --trace {0|1}\n")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res, err := render(out, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// render turns an outcome into the printed result, holding it to exactly the
// declared metric names.
func render(out outcome, defs []metricDef) (result, error) {
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return result{}, fmt.Errorf("workload reported no value for metric %s", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// memPeak samples the live heap, the bytes the last GC cycle found
// reachable, every 10 ms until stopped and keeps the highest reading: the
// run's peak memory, whatever the run's length and however late garbage is
// collected.
type memPeak struct {
	stop, done chan struct{}
	peak       uint64
}

func startMemPeak() *memPeak {
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			m.peak = max(m.peak, s[0].Value.Uint64())
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// mb stops the sampler and returns the peak in MB.
func (m *memPeak) mb() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak) / (1 << 20)
}

// goCounters reads the runtime's cumulative allocation and GC counters.
func goCounters() (allocBytes, mallocs uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs, ms.NumGC
}

// addGoDeltas stores the runtime counters accumulated since the given start
// readings.
func addGoDeltas(v map[string]float64, alloc0, mallocs0 uint64, gcs0 uint32) {
	alloc, mallocs, gcs := goCounters()
	v["go.alloc_mb"] = float64(alloc-alloc0) / (1 << 20)
	v["go.mallocs"] = float64(mallocs - mallocs0)
	v["go.gc_cycles"] = float64(gcs - gcs0)
}

// zeroMissing fills every declared metric the workload did not exercise
// with 0.
func zeroMissing(v map[string]float64, defs []metricDef) {
	for _, d := range defs {
		if _, ok := v[d.name]; !ok {
			v[d.name] = 0
		}
	}
}

// summary prints one human-readable line per metric, with its sample count
// where it is a statistic over samples, ahead of the JSON result.
func summary(workload string, counts map[string]int, v map[string]float64) {
	names := make([]string, 0, len(v))
	for n := range v {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if c, ok := counts[n]; ok {
			fmt.Printf("%s %-28s %14.6g  (n=%d)\n", workload, n, v[n], c)
		} else {
			fmt.Printf("%s %-28s %14.6g\n", workload, n, v[n])
		}
	}
}

// outPath names a file under the output directory.
func outPath(name string) string { return filepath.Join(outDir, name) }
