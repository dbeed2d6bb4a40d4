package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/run"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/records.json and rendered.json from this run")

// goldenPath holds, for every experiment at testCfg, each Record it
// executed in execution order: the Record's key and a hash of everything
// deterministic in it; experiments that execute no Records are absent from
// it. renderedPath holds, for every experiment, a hash of
// its rendered output: every table, every figure at c3ibench's size and the
// free text. A diff in either is a bug or a deliberate change; a deliberate
// one is regenerated with `go test ./internal/experiments -run
// TestAllExperimentsRun -update`.
var (
	goldenPath   = filepath.Join("testdata", "golden", "records.json")
	renderedPath = filepath.Join("testdata", "golden", "rendered.json")
)

// goldenRecord identifies one Record: its canonical key and the hash of its
// deterministic content.
type goldenRecord struct {
	Key string `json:"key"`
	SHA string `json:"sha"`
}

// recordHash hashes a Record's JSON with the host clock zeroed, cut to 16
// hex digits — the same hash perfbench checks its Records against.
func recordHash(rec run.Record) string {
	rec.HostElapsed = 0
	buf, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("encoding record %s: %v", rec.Key, err))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// goldenOf renders an experiment's Records as golden entries.
func goldenOf(recs []run.Record) []goldenRecord {
	out := make([]goldenRecord, len(recs))
	for i, r := range recs {
		out[i] = goldenRecord{Key: r.Key, SHA: recordHash(r)}
	}
	return out
}

// renderHash hashes an experiment's rendered output, cut to 16 hex digits.
func renderHash(res *Result) string {
	sum := sha256.Sum256([]byte(render(res)))
	return hex.EncodeToString(sum[:8])
}

// checkGolden compares every experiment's entry in got against the committed
// golden file at path, or rewrites the file under -update. diff describes how
// one experiment's entries differ, or returns "" when they match; an
// experiment absent from one side is compared as T's zero value.
func checkGolden[T any](t *testing.T, path string, got map[string]T, diff func(want, got T) string) {
	t.Helper()
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", path, err)
	}
	var want map[string]T
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	ids := map[string]bool{}
	for id := range want {
		ids[id] = true
	}
	for id := range got {
		ids[id] = true
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	for _, id := range sorted {
		if msg := diff(want[id], got[id]); msg != "" {
			t.Errorf("%s: differs from %s: %s", id, path, msg)
		}
	}
}

// hashDiff describes a rendered-output hash mismatch, or returns "".
func hashDiff(want, got string) string {
	if want == got {
		return ""
	}
	return fmt.Sprintf("rendered output hashes to %q, want %q", got, want)
}

// firstDiff describes the first position where two Record lists differ, or
// returns "" when they are identical.
func firstDiff(want, got []goldenRecord) string {
	for i := 0; i < len(want) || i < len(got); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("record %d %s missing (got %d records, want %d)", i, want[i].Key, len(got), len(want))
		case i >= len(want):
			return fmt.Sprintf("extra record %d %s (got %d records, want %d)", i, got[i].Key, len(got), len(want))
		case got[i].Key != want[i].Key:
			return fmt.Sprintf("record %d is %s, want %s", i, got[i].Key, want[i].Key)
		case got[i].SHA != want[i].SHA:
			return fmt.Sprintf("record %d %s hashes to %s, want %s", i, got[i].Key, got[i].SHA, want[i].SHA)
		}
	}
	return ""
}
