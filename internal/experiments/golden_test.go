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

var update = flag.Bool("update", false, "rewrite testdata/golden/records.json from this run's Records")

// goldenPath holds, for every experiment at testCfg, each Record it
// executed in execution order: the Record's key and a hash of everything
// deterministic in it. A diff is either a bug or a deliberate model change;
// a deliberate one is regenerated with `go test ./internal/experiments
// -run TestAllExperimentsRun -update`.
var goldenPath = filepath.Join("testdata", "golden", "records.json")

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

// checkGolden compares every experiment's Records against the committed
// golden file, or rewrites it under -update. Experiments that execute no
// Records are absent from the file.
func checkGolden(t *testing.T, got map[string][]goldenRecord) {
	t.Helper()
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden records (regenerate with -update): %v", err)
	}
	var want map[string][]goldenRecord
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
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
		if msg := firstDiff(want[id], got[id]); msg != "" {
			t.Errorf("%s: Records differ from %s: %s", id, goldenPath, msg)
		}
	}
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
