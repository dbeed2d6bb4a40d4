package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/c3i/suite"
	"repro/internal/report"
	"repro/internal/run"
)

// parseGridFlag splits the -grid value: "workload" sweeps the full declared
// grid; "workload=axis:v1,v2[;axis:v1,...]" restricts named axes to subsets
// of their declared values.
func parseGridFlag(s string) (name string, restrict map[string][]float64, err error) {
	name, spec, has := strings.Cut(s, "=")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", nil, fmt.Errorf(`-grid %q: need "workload" or "workload=axis:v1,v2[;axis:...]"`, s)
	}
	if !has {
		return name, nil, nil
	}
	restrict = map[string][]float64{}
	for _, part := range strings.Split(spec, ";") {
		axis, list, ok := strings.Cut(part, ":")
		axis = strings.TrimSpace(axis)
		if !ok || axis == "" {
			return "", nil, fmt.Errorf(`-grid %q: restriction %q: need "axis:v1,v2"`, s, part)
		}
		if _, dup := restrict[axis]; dup {
			return "", nil, fmt.Errorf("-grid %q: axis %q restricted twice", s, axis)
		}
		var vals []float64
		for _, f := range strings.Split(list, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return "", nil, fmt.Errorf("-grid %q: axis %q: value %q is not a number", s, axis, f)
			}
			vals = append(vals, v)
		}
		restrict[axis] = vals
	}
	return name, restrict, nil
}

// sweepError marks a grid failure that happened during execution (as opposed
// to a usage error in the flag value or grid restriction): main reports it
// with exit 1, the same contract as a failed experiment.
type sweepError struct{ err error }

func (e *sweepError) Error() string { return e.err.Error() }
func (e *sweepError) Unwrap() error { return e.err }

// gridSweep executes one grid sweep and renders it. The emitted JSON
// envelope is deterministic — host-elapsed fields are zeroed — so a sweep
// through `-remote` is byte-identical to the same sweep in-process.
func gridSweep(w io.Writer, gridFlag, variant, platform string, procs int,
	exec run.Executor, jsonOut, md bool) error {

	name, restrict, err := parseGridFlag(gridFlag)
	if err != nil {
		return err
	}
	pts, err := run.GridSpecs(name, variant, platform, procs, restrict)
	if err != nil {
		return err
	}
	wl, err := suite.Lookup(name)
	if err != nil {
		return err
	}
	if variant == "" {
		variant = wl.Reference
	}
	id := "grid:" + name
	title := fmt.Sprintf("%s scenario grid (%s on %s, %d procs, %d points)",
		wl.Title, variant, platform, procs, len(pts))

	specs := make([]run.Spec, len(pts))
	for i, gp := range pts {
		specs[i] = gp.Spec
	}
	recs, runErr := run.Batch(context.Background(), exec, specs)
	if runErr != nil {
		if jsonOut {
			// The envelope contract holds on failure too: an explicit failed
			// manifest, so a consumer gating on `.failed == []` rejects a
			// partial sweep instead of a truncated record list passing.
			if err := writeRecordSet(w, nil, []run.ExperimentFailure{
				{Experiment: id, Error: runErr.Error()}}); err != nil {
				return err
			}
		}
		return &sweepError{fmt.Errorf("grid %s: %w", name, runErr)}
	}
	for i := range recs {
		recs[i].HostElapsed = 0
	}

	if jsonOut {
		return writeRecordSet(w, []run.ExperimentRecords{
			{Experiment: id, Title: title, Records: recs}}, nil)
	}

	axes := wl.Grid
	if len(restrict) > 0 {
		if axes, err = wl.Grid.Sub(restrict); err != nil {
			return err
		}
	}
	cols := []string{}
	for _, a := range axes.Axes {
		cols = append(cols, a.Name)
	}
	cols = append(cols, "Model (s)", "Paper-scale (s)", "Checksum")
	tb := &report.Table{
		ID:      id,
		Title:   title,
		Columns: cols,
		Notes: []string{
			"row-major over the declared axes; every point validates, so every row carries the conformance checksum",
		},
	}
	for i, rec := range recs {
		row := []any{}
		for _, a := range axes.Axes {
			row = append(row, fmt.Sprintf("%g", pts[i].Point[a.Name]))
		}
		row = append(row, rec.ModelSeconds, rec.PaperSeconds,
			fmt.Sprintf("%016x", uint64(rec.Checksum)))
		tb.AddRow(row...)
	}
	if md {
		fmt.Fprintln(w, tb.Markdown())
	} else {
		fmt.Fprintln(w, tb.Render())
	}
	return nil
}
