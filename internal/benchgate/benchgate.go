// Package benchgate turns performance measurements into a committed JSON
// artifact and compares two such artifacts with per-family regression
// thresholds — the repository's performance-regression CI gate.
//
// The gate is organized around a declared Family table (see Families): each
// family names one metric class (host ns/op, simulated model seconds,
// serving-latency percentiles), the unit its verdicts render with, the
// extractor that builds its entries from a source artifact, and a default
// ratio threshold. An artifact is a JSON object keyed by family name:
//
//	{"benchmarks": {"BenchmarkX": 123456, ...},
//	 "model_s": {"threat-analysis|paper|tera|p16|s1.00": 0.43, ...},
//	 "serve_latency": {"/v1/run|p95_ms": 1.8, ...}}
//
// Adding a family is one table entry in family.go — the artifact encoding,
// comparison, rendering and the cmd/benchgate flag surface are all driven
// from the table.
//
// Entries present in only one artifact are reported but never fail the gate
// — registry growth adds benchmarks and records on every workload, and that
// must not require baseline surgery to land.
package benchgate

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/run"
)

// Report is the committed artifact: family name → entry name → value.
// Benchmark names are normalized (the -GOMAXPROCS suffix stripped), so
// artifacts recorded on machines with different core counts stay comparable;
// model_s keys are run.Spec keys, which are machine-independent by
// construction.
type Report struct {
	families map[string]map[string]float64
}

// Family returns one family's entries (nil if absent).
func (r *Report) Family(name string) map[string]float64 { return r.families[name] }

// Set installs one family's entries, replacing any previous ones. The name
// must be declared in the Families table — the artifact format is closed over
// it. Empty maps are dropped rather than stored.
func (r *Report) Set(name string, entries map[string]float64) error {
	if _, err := FamilyByName(name); err != nil {
		return err
	}
	if len(entries) == 0 {
		delete(r.families, name)
		return nil
	}
	if r.families == nil {
		r.families = map[string]map[string]float64{}
	}
	r.families[name] = entries
	return nil
}

// Len counts entries across all families.
func (r *Report) Len() int {
	n := 0
	for _, fam := range r.families {
		n += len(fam)
	}
	return n
}

// Summary renders per-family entry counts in table order ("3 benchmarks,
// 12 model_s entries").
func (r *Report) Summary() string {
	var parts []string
	for _, f := range Families {
		if n := len(r.families[f.Name]); n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, f.Name))
		}
	}
	if len(parts) == 0 {
		return "empty"
	}
	return strings.Join(parts, ", ") + " entries"
}

// MarshalJSON encodes the artifact as a flat family-keyed object, families in
// table order and entry keys sorted — the committed file is byte-stable.
func (r *Report) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	first := true
	for _, f := range Families {
		fam := r.families[f.Name]
		if len(fam) == 0 {
			continue
		}
		if !first {
			buf.WriteByte(',')
		}
		first = false
		inner, err := json.Marshal(fam) // map keys marshal sorted
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&buf, "%q:%s", f.Name, inner)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// UnmarshalJSON decodes a family-keyed artifact, rejecting families the table
// does not declare — a typoed key must not silently become an ungated family.
func (r *Report) UnmarshalJSON(data []byte) error {
	var raw map[string]map[string]float64
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	r.families = nil
	for name, entries := range raw {
		if err := r.Set(name, entries); err != nil {
			return err
		}
	}
	return nil
}

// benchLine matches one result line of `go test -bench` output:
//
//	BenchmarkWorkloadVariants/pt/fine-8   1   123456 ns/op   0.43 model-s
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// Parse extracts the benchmarks family from `go test -bench` output. Lines
// that are not benchmark results (headers, PASS/ok trailers, log noise) are
// ignored. Repeated names (a `-count N` run) keep the minimum measurement —
// min-of-N is the standard noise reducer for single-iteration benchmarks on
// shared runners.
func Parse(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op in %q: %w", sc.Text(), err)
		}
		if prev, ok := out[m[1]]; !ok || ns < prev {
			out[m[1]] = ns
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchgate: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchgate: no benchmark results found in input")
	}
	return out, nil
}

// ParseRecords reads `c3ibench -json` output and returns the model_s family:
// each record's canonical key mapped to its paper-scale simulated seconds.
// Records repeated across experiments (shared cells) carry identical values,
// so duplicates are harmless.
//
// The input is the RecordSet envelope, whose failure manifest is enforced
// here: an artifact that names failed experiments is rejected outright, so
// the gate can never silently compare against an incomplete sweep.
func ParseRecords(r io.Reader) (map[string]float64, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("benchgate: reading run records: %w", err)
	}
	var set run.RecordSet
	if err := json.Unmarshal(buf, &set); err != nil {
		return nil, fmt.Errorf("benchgate: decoding run records: %w", err)
	}
	if len(set.Failed) > 0 {
		names := make([]string, len(set.Failed))
		for i, f := range set.Failed {
			names[i] = f.Experiment
		}
		return nil, fmt.Errorf("benchgate: records artifact is incomplete: %d failed experiment(s): %s",
			len(set.Failed), strings.Join(names, ", "))
	}
	ms := map[string]float64{}
	for _, ex := range set.Experiments {
		for _, rec := range ex.Records {
			if rec.Key == "" {
				return nil, fmt.Errorf("benchgate: record without a key in experiment %s", ex.Experiment)
			}
			ms[rec.Key] = rec.PaperSeconds
		}
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("benchgate: no run records found in input")
	}
	return ms, nil
}

// WriteFile writes the report as stable (table-ordered, sorted-key, indented)
// JSON.
func (r *Report) WriteFile(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("benchgate: %w", err)
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadFile loads a report written by WriteFile.
func ReadFile(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchgate: %w", err)
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	if r.Len() == 0 {
		return nil, fmt.Errorf("benchgate: %s holds no entries in any declared family", path)
	}
	return &r, nil
}

// Regression is one entry that slowed beyond its family's threshold, or
// that differs from the baseline in an exact family.
type Regression struct {
	Name      string
	Family    string // declared family name
	Unit      string // that family's unit, for rendering
	Base      float64
	Cur       float64
	Ratio     float64
	Threshold float64 // 0 in an exact family
}

// Comparison is the gate's verdict over two reports.
type Comparison struct {
	Regressions []Regression // over-threshold entries, sorted worst first
	Missing     []string     // in base, absent from current (renamed/removed)
	Added       []string     // in current, absent from base (new entries)
	Compared    int          // entries present in both, across families
}

// Compare evaluates current against base across every declared family. Each
// family gates at its table default unless overridden by name; override
// ratios must be > 1 and name declared families that are not exact.
func Compare(base, current *Report, overrides map[string]float64) (*Comparison, error) {
	thresholds := map[string]float64{}
	for _, f := range Families {
		thresholds[f.Name] = f.Threshold
	}
	for name, ratio := range overrides {
		f, err := FamilyByName(name)
		if err != nil {
			return nil, err
		}
		if f.Exact {
			return nil, fmt.Errorf("benchgate: family %s is exact and takes no threshold", name)
		}
		if ratio <= 1 {
			return nil, fmt.Errorf("benchgate: threshold %g for family %s, need > 1", ratio, name)
		}
		thresholds[name] = ratio
	}
	c := &Comparison{}
	for _, f := range Families {
		c.compareFamily(f, base.Family(f.Name), current.Family(f.Name), thresholds[f.Name])
	}
	sort.Slice(c.Regressions, func(i, j int) bool { return c.Regressions[i].Ratio > c.Regressions[j].Ratio })
	sort.Strings(c.Missing)
	sort.Strings(c.Added)
	return c, nil
}

// compareFamily gates one family; names in Missing/Added are prefixed with
// the family for unambiguous reporting. Both maps are walked in sorted key
// order so the comparison lists are deterministic on their own, not only
// after the caller's cross-family sort.
func (c *Comparison) compareFamily(f Family, base, current map[string]float64, threshold float64) {
	prefix := f.Name + ": "
	for _, name := range sortedKeys(base) {
		b := base[name]
		cur, ok := current[name]
		if !ok {
			c.Missing = append(c.Missing, prefix+name)
			continue
		}
		c.Compared++
		if (f.Exact && cur != b) || (!f.Exact && b > 0 && cur/b > threshold) {
			c.Regressions = append(c.Regressions, Regression{
				Name: name, Family: f.Name, Unit: f.Unit,
				Base: b, Cur: cur, Ratio: cur / b, Threshold: threshold,
			})
		}
	}
	for _, name := range sortedKeys(current) {
		if _, ok := base[name]; !ok {
			c.Added = append(c.Added, prefix+name)
		}
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Render writes the human-readable verdict to w and reports whether the
// gate passes.
func (c *Comparison) Render(w io.Writer) bool {
	fmt.Fprintf(w, "benchgate: %d entries compared, %d added, %d missing\n",
		c.Compared, len(c.Added), len(c.Missing))
	for _, name := range c.Added {
		fmt.Fprintf(w, "  new:      %s (not in baseline — informational)\n", name)
	}
	for _, name := range c.Missing {
		fmt.Fprintf(w, "  missing:  %s (in baseline only — informational)\n", name)
	}
	for _, r := range c.Regressions {
		gate := fmt.Sprintf("%.2fx > %.2fx gate", r.Ratio, r.Threshold)
		if r.Threshold == 0 {
			gate = "exact gate"
		}
		fmt.Fprintf(w, "  REGRESSED [%s] %s: %g → %g %s (%s)\n",
			r.Family, r.Name, r.Base, r.Cur, r.Unit, gate)
	}
	if len(c.Regressions) == 0 {
		fmt.Fprintln(w, "benchgate: no regressions beyond the gates")
		return true
	}
	return false
}
