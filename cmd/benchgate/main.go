// Command benchgate is the performance-regression CI gate: it converts
// measurements into a committed JSON artifact and compares two artifacts
// with per-family gates. The families are table-driven (see
// internal/benchgate): "benchmarks" (host ns/op from `go test -bench`
// output, generous default ratio — shared runners are noisy), "model_s"
// (simulated seconds from `c3ibench -json` records, exact: any change fails
// — the model is deterministic for a given tree) and "serve_latency"
// (client-side p50/p95/p99 per endpoint from a `c3iload` artifact).
//
//	go test -bench . -benchtime 1x -run '^$' . | benchgate -parse -out BENCH_pr.json
//	benchgate -parse -src benchmarks=bench.txt -src model_s=records.json -out BENCH_pr.json
//	benchgate -parse -src serve_latency=load.json -out BENCH_serve_pr.json
//	benchgate -baseline BENCH_baseline.json -current BENCH_pr.json \
//	    -family benchmarks=2
//
// -family name=ratio overrides one ratio family's gate (repeatable; unset
// families use the table defaults; an exact family rejects it). -src
// name=path feeds one family's source to -parse (repeatable); bare `-parse`
// with no -src reads `go test -bench` output from stdin, preserving the
// original pipe idiom.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/benchgate"
)

// kvFlag collects repeatable name=value flags into an ordered key set.
type kvFlag struct {
	name   string // flag name, for error messages
	keys   []string
	values map[string]string
}

func (f *kvFlag) String() string {
	var parts []string
	for _, k := range f.keys {
		parts = append(parts, k+"="+f.values[k])
	}
	return strings.Join(parts, ",")
}

func (f *kvFlag) Set(s string) error {
	name, value, ok := strings.Cut(s, "=")
	if !ok || name == "" || value == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	if _, err := benchgate.FamilyByName(name); err != nil {
		return err
	}
	if f.values == nil {
		f.values = map[string]string{}
	}
	if _, dup := f.values[name]; dup {
		return fmt.Errorf("-%s %s given twice", f.name, name)
	}
	f.keys = append(f.keys, name)
	f.values[name] = value
	return nil
}

func main() {
	var (
		parse    = flag.Bool("parse", false, "build a JSON artifact from the -src inputs (no -src: benchmarks from stdin)")
		out      = flag.String("out", "BENCH_pr.json", "artifact path to write with -parse")
		baseline = flag.String("baseline", "", "baseline artifact to compare against")
		current  = flag.String("current", "", "current artifact to compare")

		srcs       = kvFlag{name: "src"}
		thresholds = kvFlag{name: "family"}
	)
	flag.Var(&srcs, "src", "family=path source for -parse (repeatable); see internal/benchgate for the declared families")
	flag.Var(&thresholds, "family", "family=ratio gate override for comparison (repeatable; unset families use table defaults)")
	flag.Parse()

	if len(srcs.keys) > 0 && !*parse {
		// Sources feed artifact *construction*; in compare mode every family
		// comes from the artifacts themselves. Silently ignoring them would
		// skip a gate the caller asked for.
		fmt.Fprintln(os.Stderr, "benchgate: -src is only meaningful with -parse (compare mode reads families from the artifacts)")
		os.Exit(2)
	}

	switch {
	case *parse:
		if len(srcs.keys) == 0 {
			// The original pipe idiom: `go test -bench . | benchgate -parse`.
			// Set cannot fail here: a declared family, on an empty set.
			_ = srcs.Set(benchgate.FamilyBenchmarks + "=-")
		}
		rep := &benchgate.Report{}
		for _, name := range srcs.keys {
			fam, err := benchgate.FamilyByName(name)
			if err != nil {
				log.Fatal(err)
			}
			src := os.Stdin
			if path := srcs.values[name]; path != "-" {
				f, err := os.Open(path)
				if err != nil {
					log.Fatal(err)
				}
				defer f.Close()
				src = f
			}
			entries, err := fam.Extract(src)
			if err != nil {
				log.Fatal(err)
			}
			if err := rep.Set(name, entries); err != nil {
				log.Fatal(err)
			}
		}
		if err := rep.WriteFile(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("benchgate: wrote %s (%s)\n", *out, rep.Summary())
	case *baseline != "" && *current != "":
		base, err := benchgate.ReadFile(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		cur, err := benchgate.ReadFile(*current)
		if err != nil {
			log.Fatal(err)
		}
		overrides := map[string]float64{}
		for name, raw := range thresholds.values {
			ratio, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				log.Fatalf("benchgate: -family %s=%s: %v", name, raw, err)
			}
			overrides[name] = ratio
		}
		cmp, err := benchgate.Compare(base, cur, overrides)
		if err != nil {
			log.Fatal(err)
		}
		if !cmp.Render(os.Stdout) {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchgate: use -parse [-src family=path ...] -out X.json, or -baseline X.json -current Y.json [-family name=ratio ...]")
		os.Exit(2)
	}
}
