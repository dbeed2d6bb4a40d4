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
//	c3ibench -all -jobs 4          # same results, 4 cells of each table at once
//	c3ibench -all -md              # markdown output
//	c3ibench -run table5 -json     # machine-readable run records (CI artifact)
//	c3ibench -scale-ta 0.5 ...     # bigger Threat Analysis workload
//	c3ibench -scale-ro 1 ...       # full Route Optimization workload
//	c3ibench -all -remote http://host:8642
//	                               # same tables, Specs executed by a c3iserve
//	                               # process (and its record store) instead of
//	                               # in-process, one batch per table (halved
//	                               # while the server's queue rejects it)
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
// Experiments run one after another in the requested order, each printed as
// it finishes; -jobs sets how many of an experiment's cells run at once and
// changes no output. With -remote, -jobs has no effect: the server's worker
// pools decide how many cells run at once. The exit status is non-zero if
// any requested experiment ID is unknown or any experiment fails; the
// remaining experiments still run, so one broken table does not hide the
// rest of an -all sweep. In -json mode the emitted envelope carries an
// explicit `failed` manifest naming those experiments, so a consumer gating
// on the artifact can tell a complete sweep from a partial one. Invalid flag
// values (a non-positive -jobs or -scale-*) are usage errors: exit 2, naming
// the flag.
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
	"time"

	"repro/internal/c3i/suite"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/serve"
)

func main() {
	os.Exit(c3ibench(os.Args[1:], os.Stdout, os.Stderr))
}

// c3ibench runs the command with the given arguments and returns its exit
// status: 2 for a usage error, 1 when an experiment or the grid sweep failed
// or an output file could not be written, 0 otherwise.
func c3ibench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("c3ibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list registered workloads, variants and experiment IDs, then exit")
		runIDs  = fs.String("run", "", "comma-separated experiment IDs to run")
		all     = fs.Bool("all", false, "run every experiment in paper order")
		jobs    = fs.Int("jobs", 1, "number of cells run at once (results and their order do not depend on it); ignored with -remote, where the server's worker pools set it")
		md      = fs.Bool("md", false, "emit Markdown instead of ASCII tables")
		jsonOut = fs.Bool("json", false, "emit the raw run records as JSON instead of rendered tables/figures")
		text    = fs.Bool("text", true, "include free-text output (compiler feedback)")
		remote  = fs.String("remote", "", "execute run Specs against a c3iserve or c3irouter endpoint (base URL) instead of in-process, one batch per table, halved while the server answers 429")
		grid    = fs.String("grid", "", `sweep a workload's declared scenario grid: "workload" or "workload=axis:v1,v2[;axis:...]"`)
		gridVar = fs.String("grid-variant", "", "variant for -grid (default: the workload's reference variant)")
		gridPlt = fs.String("grid-platform", "tera", "platform key for -grid")
		gridNP  = fs.Int("grid-procs", 2, "processor count for -grid")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf = fs.String("memprofile", "", "write a post-sweep heap profile to this file")
		stats   = fs.String("stats", "", `write the Runner's metrics snapshot (JSON) after the sweep to this file ("-" = stdout)`)
	)
	// One scale flag per registered workload: -scale-ta, -scale-tm, ...
	scales := map[string]*float64{}
	for _, w := range suite.All() {
		scales[w.Name] = fs.Float64("scale-"+w.Key, w.DefaultScale,
			fmt.Sprintf("%s workload scale (1 = the paper-scale %d %s)", w.Title, w.PaperUnits, w.UnitName))
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "c3ibench: "+format+"\n", a...)
		return 2
	}

	// Reject invalid values outright instead of silently serializing or
	// falling back to registry defaults: a mistyped sweep should not emit
	// tables (or CI artifacts) at a scale the caller did not ask for.
	if *jobs < 1 {
		return usage("-jobs %d: must be at least 1", *jobs)
	}
	for _, w := range suite.All() {
		if s := *scales[w.Name]; s <= 0 {
			return usage("-scale-%s %g: must be positive", w.Key, s)
		}
	}

	if *list {
		printList(stdout)
		return 0
	}

	var ids []string
	switch {
	case *grid != "":
		// A grid sweep is a standalone mode: it emits one records envelope
		// (or one table) for exactly the declared points, so mixing it with
		// an experiment sweep would interleave two different documents.
		if *all || *runIDs != "" {
			return usage("-grid is standalone; drop -run/-all")
		}
		if *gridNP < 1 {
			return usage("-grid-procs %d: must be at least 1", *gridNP)
		}
	case *all:
		ids = experiments.IDs()
	case *runIDs != "":
		ids = strings.Split(*runIDs, ",")
	default:
		return usage("nothing to do; use -list, -run <ids> or -all")
	}
	if *jsonOut && *stats == "-" {
		return usage("-json and -stats - both write stdout; give -stats a file")
	}

	// Every Spec goes through one executor: a Runner running -jobs cells at
	// once, or the -remote client. Client attempt/retry counters land in the
	// Runner's registry, so -stats shows remote transport behaviour next to
	// the run counters.
	runner := run.NewRunner(*jobs)
	var exec run.Executor = runner
	if *remote != "" {
		exec = &serve.Client{Addr: *remote, Metrics: runner.Metrics()}
	}

	stopCPU, err := startCPUProfile(*cpuProf)
	if err != nil {
		return usage("%v", err)
	}
	// finish is both modes' epilogue. Profiles cover exactly the sweep; the
	// snapshot and profile files are written even when the sweep failed, so
	// a partial sweep still leaves evidence of where the time went.
	finish := func(status int) int {
		stopCPU()
		if err := writeMemProfile(*memProf); err != nil {
			fmt.Fprintf(stderr, "c3ibench: %v\n", err)
			status = max(status, 1)
		}
		if err := writeStats(*stats, runner.Metrics(), stdout); err != nil {
			fmt.Fprintf(stderr, "c3ibench: %v\n", err)
			status = max(status, 1)
		}
		return status
	}

	if *grid != "" {
		status := 0
		if err := gridSweep(stdout, *grid, *gridVar, *gridPlt, *gridNP, exec, *jsonOut, *md); err != nil {
			fmt.Fprintf(stderr, "c3ibench: %v\n", err)
			status = 2 // bad flag value, unknown workload/axis, undeclared point
			var se *sweepError
			if errors.As(err, &se) {
				status = 1 // the sweep itself failed
			}
		}
		return finish(status)
	}

	cfg := experiments.Config{Scales: map[string]float64{}, Executor: exec}
	for name, s := range scales {
		cfg.Scales[name] = *s
	}

	// Experiments run one after another, each reported as it finishes. In
	// -json mode the records are collected and emitted as one document once
	// the sweep completes.
	var recorded []run.ExperimentRecords
	var failed []run.ExperimentFailure
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		e, err := experiments.Get(id)
		var res *experiments.Result
		if err == nil {
			res, err = e.Run(cfg)
		}
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(stderr, "c3ibench: %s: %v\n", id, err)
			failed = append(failed, run.ExperimentFailure{Experiment: id, Error: err.Error()})
			continue
		}
		if *jsonOut {
			recorded = append(recorded, run.ExperimentRecords{
				Experiment: e.ID,
				Title:      e.Title,
				ElapsedS:   elapsed.Seconds(),
				Records:    res.Records,
			})
		} else {
			for _, tb := range res.Tables {
				if *md {
					fmt.Fprintln(stdout, tb.Markdown())
				} else {
					fmt.Fprintln(stdout, tb.Render())
				}
			}
			for _, fig := range res.Figures {
				fmt.Fprintln(stdout, fig.Render(56, 16))
			}
			if *text && res.Text != "" {
				fmt.Fprintln(stdout, res.Text)
			}
		}
		fmt.Fprintf(stderr, "[%s in %.1fs]\n", e.ID, elapsed.Seconds())
	}
	status := finish(0)
	if *jsonOut {
		// Emit whatever completed even when some experiments failed — the
		// same partial-failure contract as the rendered-table mode, with
		// the exit status still reporting the failures — but the envelope
		// names the failed experiments explicitly, so a consumer gating on
		// this artifact (the CI model_s step) can reject an incomplete
		// sweep instead of silently accepting whatever subset succeeded.
		if err := writeRecordSet(stdout, recorded, failed); err != nil {
			fmt.Fprintf(stderr, "c3ibench: encoding records: %v\n", err)
			return 1
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "c3ibench: %d of %d requested experiments failed\n", len(failed), len(ids))
		return 1
	}
	return status
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

// writeStats snapshots the sweep's metrics registry as JSON to path ("-" =
// stdout, "" = no-op). With -remote the interesting counters live in the
// server's /metrics — the local registry holds only the client's counters.
func writeStats(path string, reg *obs.Registry, stdout io.Writer) error {
	if path == "" {
		return nil
	}
	w := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("-stats: %w", err)
		}
		defer f.Close()
		w = f
	}
	if err := reg.WriteJSON(w); err != nil {
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
func printList(out io.Writer) {
	fmt.Fprintln(out, "Registered workloads (internal/c3i/suite):")
	for _, w := range suite.All() {
		fmt.Fprintf(out, "  %-20s -scale-%-3s %s (1 = %d %s; default %g)\n",
			w.Name, w.Key, w.Title, w.PaperUnits, w.UnitName, w.DefaultScale)
		for _, v := range w.Variants {
			params := "no params"
			if len(v.Defaults) > 0 {
				params = "defaults " + v.Defaults.String()
			}
			fmt.Fprintf(out, "    %-12s style=%-10s %s\n", v.Name, v.Style, params)
		}
		if w.Grid != nil && len(w.Grid.Axes) > 0 {
			fmt.Fprintf(out, "    grid (%d points):\n", len(w.Grid.Points()))
			for _, a := range w.Grid.Axes {
				vals := make([]string, len(a.Values))
				for i, v := range a.Values {
					vals[i] = fmt.Sprintf("%g", v)
				}
				unit := ""
				if a.Unit != "" {
					unit = " " + a.Unit
				}
				fmt.Fprintf(out, "      axis %-8s {%s}%s (default %g)\n",
					a.Name, strings.Join(vals, ", "), unit, a.Default)
			}
		}
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Experiments (paper order):")
	for _, e := range experiments.All() {
		fmt.Fprintf(out, "  %-24s %s\n", e.ID, e.Title)
	}
}
