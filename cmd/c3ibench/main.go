// Command c3ibench regenerates the paper's tables and figures (and the
// reproduction's ablations and suite extensions) from the machine models and
// benchmark programs. Workloads, their variants and their scale flags come
// from the internal/c3i/suite registry, so a newly registered workload shows
// up here with no command changes. Every model cell is executed through the
// internal/run API; -json emits the raw run records instead of rendered
// tables, and each emitted record's Spec re-executes to the identical
// ModelSeconds and Checksum.
//
// Usage:
//
//	c3ibench -list                 # registered workloads, variants, experiment IDs
//	c3ibench -run table5           # one experiment
//	c3ibench -run table5,table6    # several
//	c3ibench -all                  # everything, in paper order
//	c3ibench -all -jobs 4          # same results, computed by 4 parallel workers
//	c3ibench -all -md              # markdown output
//	c3ibench -run table5 -json     # machine-readable run records (CI artifact)
//	c3ibench -scale-ta 0.5 ...     # bigger Threat Analysis workload
//	c3ibench -scale-ro 1 ...       # full Route Optimization workload
//	c3ibench -all -remote http://host:8642
//	                               # same tables, Specs executed by a c3iserve
//	                               # process (and its record store) instead of
//	                               # in-process
//	c3ibench -run ro-streams -cpuprofile cpu.out -memprofile mem.out
//	                               # profile the engine hot paths under a real
//	                               # sweep (go tool pprof cpu.out)
//	c3ibench -grid hypothesis-testing -json
//	                               # sweep a workload's declared scenario grid:
//	                               # one validated run record per grid point,
//	                               # row-major over the declared axes
//	c3ibench -grid "hypothesis-testing=gate:24,48;net:0"
//	                               # restrict axes to subsets of their declared
//	                               # values (quote the = and ; for the shell)
//	c3ibench -run table5 -stats -  # print the Runner's metrics snapshot
//	                               # (JSON: per-workload exec latency
//	                               # histograms with p50/p95/p99, cache/store
//	                               # counters) after the sweep; -stats FILE
//	                               # writes it to FILE (the CI artifact)
//
// Results always print in the requested order, whatever -jobs is. The exit
// status is non-zero if any requested experiment ID is unknown or any
// experiment fails; the remaining experiments still run, so one broken table
// does not hide the rest of an -all sweep. In -json mode the emitted envelope
// carries an explicit `failed` manifest naming those experiments, so a
// consumer gating on the artifact can tell a complete sweep from a partial
// one. Invalid flag values (a non-positive -jobs or -scale-*) are usage
// errors: exit 2, naming the flag.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/c3i/suite"
	"repro/internal/experiments"
	"repro/internal/run"
	"repro/internal/serve"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list registered workloads, variants and experiment IDs, then exit")
		runIDs  = flag.String("run", "", "comma-separated experiment IDs to run")
		all     = flag.Bool("all", false, "run every experiment in paper order")
		jobs    = flag.Int("jobs", 1, "number of parallel experiment workers (results still print in order)")
		md      = flag.Bool("md", false, "emit Markdown instead of ASCII tables")
		jsonOut = flag.Bool("json", false, "emit the raw run records as JSON instead of rendered tables/figures")
		text    = flag.Bool("text", true, "include free-text output (compiler feedback)")
		remote  = flag.String("remote", "", "execute run Specs against a c3iserve or c3irouter endpoint (base URL) instead of in-process")
		grid    = flag.String("grid", "", `sweep a workload's declared scenario grid: "workload" or "workload=axis:v1,v2[;axis:...]"`)
		gridVar = flag.String("grid-variant", "", "variant for -grid (default: the workload's reference variant)")
		gridPlt = flag.String("grid-platform", "tera", "platform key for -grid")
		gridNP  = flag.Int("grid-procs", 2, "processor count for -grid")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf = flag.String("memprofile", "", "write a post-sweep heap profile to this file")
		stats   = flag.String("stats", "", `write the Runner's metrics snapshot (JSON) after the sweep to this file ("-" = stdout)`)
	)
	// One scale flag per registered workload: -scale-ta, -scale-tm, ...
	scales := map[string]*float64{}
	for _, w := range suite.All() {
		scales[w.Name] = flag.Float64("scale-"+w.Key, w.DefaultScale,
			fmt.Sprintf("%s workload scale (1 = the paper-scale %d %s)", w.Title, w.PaperUnits, w.UnitName))
	}
	flag.Parse()

	// Reject invalid values outright instead of silently serializing or
	// falling back to registry defaults: a mistyped sweep should not emit
	// tables (or CI artifacts) at a scale the caller did not ask for.
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "c3ibench: -jobs %d: must be at least 1\n", *jobs)
		os.Exit(2)
	}
	for _, w := range suite.All() {
		if s := *scales[w.Name]; s <= 0 {
			fmt.Fprintf(os.Stderr, "c3ibench: -scale-%s %g: must be positive\n", w.Key, s)
			os.Exit(2)
		}
	}

	if *list {
		printList()
		return
	}

	if *grid != "" {
		// A grid sweep is a standalone mode: it emits one records envelope
		// (or one table) for exactly the declared points, so mixing it with
		// an experiment sweep would interleave two different documents.
		if *all || *runIDs != "" {
			fmt.Fprintln(os.Stderr, "c3ibench: -grid is standalone; drop -run/-all")
			os.Exit(2)
		}
		if *gridNP < 1 {
			fmt.Fprintf(os.Stderr, "c3ibench: -grid-procs %d: must be at least 1\n", *gridNP)
			os.Exit(2)
		}
		var exec batchExecutor = run.NewRunner(*jobs)
		if *remote != "" {
			exec = &serve.Client{Addr: *remote, Metrics: experiments.Metrics()}
		}
		if err := gridSweep(os.Stdout, *grid, *gridVar, *gridPlt, *gridNP, exec, *jsonOut, *md); err != nil {
			fmt.Fprintf(os.Stderr, "c3ibench: %v\n", err)
			var se *sweepError
			if errors.As(err, &se) {
				os.Exit(1) // the sweep itself failed
			}
			os.Exit(2) // bad flag value, unknown workload/axis, undeclared point
		}
		return
	}

	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *runIDs != "":
		ids = strings.Split(*runIDs, ",")
	default:
		fmt.Fprintln(os.Stderr, "c3ibench: nothing to do; use -list, -run <ids> or -all")
		os.Exit(2)
	}

	cfg := experiments.Config{Scales: map[string]float64{}}
	for name, s := range scales {
		cfg.Scales[name] = *s
	}
	if *remote != "" {
		// Client attempt/retry counters land in the same registry -stats
		// snapshots, so remote transport behaviour is visible next to the
		// run counters.
		cfg.Executor = &serve.Client{Addr: *remote, Metrics: experiments.Metrics()}
	}

	if *jsonOut && *stats == "-" {
		fmt.Fprintln(os.Stderr, "c3ibench: -json and -stats - both write stdout; give -stats a file")
		os.Exit(2)
	}
	stopCPU, err := startCPUProfile(*cpuProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "c3ibench: %v\n", err)
		os.Exit(2)
	}

	// Outcomes stream in request order as they (and their predecessors)
	// finish, so serial runs report incrementally and -jobs runs print
	// identically. In -json mode the records are collected and emitted as
	// one document once the sweep completes.
	failures := 0
	var recorded []run.ExperimentRecords
	var failed []run.ExperimentFailure
	experiments.RunEach(ids, cfg, *jobs, func(oc experiments.Outcome) {
		if oc.Err != nil {
			fmt.Fprintf(os.Stderr, "c3ibench: %s: %v\n", oc.Experiment.ID, oc.Err)
			failed = append(failed, run.ExperimentFailure{Experiment: oc.Experiment.ID, Error: oc.Err.Error()})
			failures++
			return
		}
		if *jsonOut {
			recorded = append(recorded, run.ExperimentRecords{
				Experiment: oc.Experiment.ID,
				Title:      oc.Experiment.Title,
				ElapsedS:   oc.Elapsed.Seconds(),
				Records:    oc.Result.Records,
			})
		} else {
			for _, tb := range oc.Result.Tables {
				if *md {
					fmt.Println(tb.Markdown())
				} else {
					fmt.Println(tb.Render())
				}
			}
			for _, fig := range oc.Result.Figures {
				fmt.Println(fig.Render(56, 16))
			}
			if *text && oc.Result.Text != "" {
				fmt.Println(oc.Result.Text)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s in %.1fs]\n", oc.Experiment.ID, oc.Elapsed.Seconds())
	})
	// Profiles cover exactly the sweep; the snapshot and profile files are
	// written even when some experiments failed, so a partial sweep still
	// leaves evidence of where the time went.
	stopCPU()
	toolErr := false
	if err := writeMemProfile(*memProf); err != nil {
		fmt.Fprintf(os.Stderr, "c3ibench: %v\n", err)
		toolErr = true
	}
	if err := writeStats(*stats); err != nil {
		fmt.Fprintf(os.Stderr, "c3ibench: %v\n", err)
		toolErr = true
	}
	if *jsonOut {
		// Emit whatever completed even when some experiments failed — the
		// same partial-failure contract as the rendered-table mode, with
		// the exit status still reporting the failures — but the envelope
		// names the failed experiments explicitly, so a consumer gating on
		// this artifact (the CI model_s step) can reject an incomplete
		// sweep instead of silently accepting whatever subset succeeded.
		if err := writeRecordSet(os.Stdout, recorded, failed); err != nil {
			fmt.Fprintf(os.Stderr, "c3ibench: encoding records: %v\n", err)
			os.Exit(1)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "c3ibench: %d of %d requested experiments failed\n", failures, len(ids))
		os.Exit(1)
	}
	if toolErr {
		os.Exit(1)
	}
}

// startCPUProfile begins CPU profiling into path (no-op for ""), returning
// the stop function to run once the sweep is done.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile writes a post-GC heap profile to path (no-op for "") —
// live allocations after the sweep, the view the ROADMAP's allocation-cut
// work starts from.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC() // settle the sweep's garbage so the profile shows live data
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	return nil
}

// writeStats snapshots the shared Runner's metrics registry as JSON to path
// ("-" = stdout, "" = no-op). With -remote the interesting counters live in
// the server's /metrics — the local registry only shows zero executions.
func writeStats(path string) error {
	if path == "" {
		return nil
	}
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("-stats: %w", err)
		}
		defer f.Close()
		w = f
	}
	if err := experiments.Metrics().WriteJSON(w); err != nil {
		return fmt.Errorf("-stats: %w", err)
	}
	return nil
}

// writeRecordSet emits the -json envelope: completed experiments plus the
// explicit failure manifest, with both arrays always present (empty, never
// null) so downstream jq gates can check `.failed == []` directly.
func writeRecordSet(w io.Writer, recorded []run.ExperimentRecords, failed []run.ExperimentFailure) error {
	set := run.RecordSet{Experiments: recorded, Failed: failed}
	set.Canonicalize()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(set)
}

// printList renders the full registered surface: every workload with its
// variants and tunable parameters, then every experiment ID in paper order.
func printList() {
	fmt.Println("Registered workloads (internal/c3i/suite):")
	for _, w := range suite.All() {
		fmt.Printf("  %-20s -scale-%-3s %s (1 = %d %s; default %g)\n",
			w.Name, w.Key, w.Title, w.PaperUnits, w.UnitName, w.DefaultScale)
		for _, v := range w.Variants {
			params := "no params"
			if len(v.Defaults) > 0 {
				params = "defaults " + v.Defaults.String()
			}
			fmt.Printf("    %-12s style=%-10s %s\n", v.Name, v.Style, params)
		}
		if w.Grid != nil && len(w.Grid.Axes) > 0 {
			fmt.Printf("    grid (%d points):\n", len(w.Grid.Points()))
			for _, a := range w.Grid.Axes {
				vals := make([]string, len(a.Values))
				for i, v := range a.Values {
					vals[i] = fmt.Sprintf("%g", v)
				}
				unit := ""
				if a.Unit != "" {
					unit = " " + a.Unit
				}
				fmt.Printf("      axis %-8s {%s}%s (default %g)\n",
					a.Name, strings.Join(vals, ", "), unit, a.Default)
			}
		}
	}
	fmt.Println()
	fmt.Println("Experiments (paper order):")
	for _, e := range experiments.All() {
		fmt.Printf("  %-24s %s\n", e.ID, e.Title)
	}
}
