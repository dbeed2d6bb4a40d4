// Package data provides the C3I Parallel Benchmark Suite's data management:
// each benchmark problem ships with "the benchmark input data" and "a
// correctness test for the benchmark output data". Scenarios serialize to a
// versioned binary format (gob with a magic header), and outputs reduce to
// stable FNV-1a checksums so a run can be validated without storing full
// golden outputs — the Terrain Masking result alone is tens of megabytes.
//
// The format needs no per-workload code: Save gob-encodes the registered
// workload's scenario value itself, and Load decodes into the empty
// scenario the workload's suite.Workload.New returns, then runs the
// scenario's Validate. The command c3idata generates scenario files and
// golden checksums, and re-validates solver outputs against them.
package data

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"reflect"

	"repro/internal/c3i/suite"
)

// magic identifies scenario files; the header after it carries a format
// version. Version 2 added the Route Optimization scenario kind; version 3
// added Plot-Track Assignment; version 4 added Hypothesis Testing; version
// 5 encodes each scenario value directly, which moved Terrain Masking's
// W, H and Elev under its Grid.
const (
	magic   = "C3IPBS\x00"
	version = 5
)

// header is the self-describing prefix of every scenario file. Kind is the
// suite.Workload name, or "golden" for a golden-record file.
type header struct {
	Kind    string
	Version int
}

// Save writes one of w's scenarios to path.
func Save(path string, w *suite.Workload, sc suite.Scenario) error {
	if got, want := reflect.TypeOf(sc), reflect.TypeOf(w.New()); got != want {
		return fmt.Errorf("data: %s scenario has type %v, want %v", w.Name, got, want)
	}
	return writeFile(path, w.Name, sc)
}

// Load reads one of w's scenarios from path and validates it.
func Load(path string, w *suite.Workload) (suite.Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("data: %w", err)
	}
	defer f.Close()
	return load(bufio.NewReader(f), path, w)
}

// load decodes one of w's scenarios from r (named name in errors) and
// validates it.
func load(r io.Reader, name string, w *suite.Workload) (suite.Scenario, error) {
	sc := w.New()
	if err := decode(r, name, w.Name, sc); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("data: %s: %w", name, err)
	}
	return sc, nil
}

func writeFile(path, kind string, payload any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("data: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if err := encode(bw, kind, payload); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("data: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("data: %w", err)
	}
	return nil
}

func encode(w io.Writer, kind string, payload any) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return fmt.Errorf("data: %w", err)
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(header{Kind: kind, Version: version}); err != nil {
		return fmt.Errorf("data: encode header: %w", err)
	}
	if err := enc.Encode(payload); err != nil {
		return fmt.Errorf("data: encode payload: %w", err)
	}
	return nil
}

func readFile(path, wantKind string, payload any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("data: %w", err)
	}
	defer f.Close()
	return decode(bufio.NewReader(f), path, wantKind, payload)
}

func decode(r io.Reader, name, wantKind string, payload any) error {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil || string(got) != magic {
		return fmt.Errorf("data: %s is not a C3IPBS scenario file", name)
	}
	dec := gob.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("data: decode header: %w", err)
	}
	if h.Kind != wantKind {
		return fmt.Errorf("data: %s holds a %s scenario, want %s", name, h.Kind, wantKind)
	}
	if h.Version != version {
		return fmt.Errorf("data: %s has format version %d, want %d", name, h.Version, version)
	}
	if err := dec.Decode(payload); err != nil {
		return fmt.Errorf("data: decode payload: %w", err)
	}
	return nil
}

// Golden records the expected checksum for one scenario — the benchmark's
// correctness test.
type Golden struct {
	Scenario string
	Kind     string
	Checksum uint64
}

// SaveGolden writes golden records to path (gob, same header scheme).
func SaveGolden(path string, gs []Golden) error {
	return writeFile(path, "golden", gs)
}

// LoadGolden reads golden records from path.
func LoadGolden(path string) ([]Golden, error) {
	var gs []Golden
	if err := readFile(path, "golden", &gs); err != nil {
		return nil, err
	}
	return gs, nil
}

// CheckGolden compares a computed checksum against the golden record for a
// scenario, returning a descriptive error on mismatch or missing record.
func CheckGolden(gs []Golden, scenario, kind string, checksum uint64) error {
	for _, g := range gs {
		if g.Scenario == scenario && g.Kind == kind {
			if g.Checksum != checksum {
				return fmt.Errorf("data: %s %s: checksum %016x, golden %016x — output is wrong",
					kind, scenario, checksum, g.Checksum)
			}
			return nil
		}
	}
	return fmt.Errorf("data: no golden record for %s %s", kind, scenario)
}
