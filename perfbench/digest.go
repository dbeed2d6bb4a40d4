package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/run"
)

// digestsJSON is the committed reference: for every experiment at every
// declared scale, the hash of each Record it produced, in execution order.
//
//go:embed digests.json
var digestsJSON []byte

// digestFile is the reference digest file's shape.
type digestFile struct {
	// SimProbeProcs is paper-mta's median machine.max_live over its distinct
	// Records at the first declared scales; the sim microprobe runs that
	// many procs.
	SimProbeProcs int `json:"sim_probe_procs"`
	// Experiments maps a digest key (see digestKey) to the experiment's
	// Records in execution order.
	Experiments map[string][]recordDigest `json:"experiments"`
}

// recordDigest identifies one Record: its canonical key and the hash of its
// deterministic content.
type recordDigest struct {
	Key string `json:"key"`
	SHA string `json:"sha"`
}

// loadDigests parses the embedded reference.
func loadDigests() (digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return d, fmt.Errorf("reference digests: %w", err)
	}
	return d, nil
}

// recordHash hashes everything deterministic in a Record — Spec, Key,
// ModelSeconds, PaperSeconds, Checksum, OverheadBytes and every Stats field
// — leaving out only the host clock.
func recordHash(rec run.Record) string {
	rec.HostElapsed = 0
	buf, err := json.Marshal(rec)
	if err != nil {
		// A Record is plain data; failing to encode one is a bug.
		panic(fmt.Sprintf("perfbench: encoding record %s: %v", rec.Key, err))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// digestKey names an experiment's Records at the scales they ran at:
// "table9@terrain-masking=0.05". The scales come from the Records
// themselves, so a Record at an undeclared scale finds no reference.
func digestKey(experiment string, recs []run.Record) string {
	seen := map[string]bool{}
	var parts []string
	for _, r := range recs {
		p := fmt.Sprintf("%s=%g", r.Spec.Workload, r.Spec.Scale)
		if !seen[p] {
			seen[p] = true
			parts = append(parts, p)
		}
	}
	sort.Strings(parts)
	return experiment + "@" + strings.Join(parts, ",")
}

// digestsOf renders Records as their reference entries.
func digestsOf(recs []run.Record) []recordDigest {
	out := make([]recordDigest, len(recs))
	for i, r := range recs {
		out[i] = recordDigest{Key: r.Key, SHA: recordHash(r)}
	}
	return out
}

// mismatches counts the Records that differ from the reference, position by
// position; missing and extra Records count too. An experiment with no
// reference at its scales fails every Record.
func (d digestFile) mismatches(experiment string, recs []run.Record) int {
	want, ok := d.Experiments[digestKey(experiment, recs)]
	if !ok {
		return max(len(recs), 1)
	}
	bad := 0
	for i, r := range recs {
		if i >= len(want) || want[i].Key != r.Key || want[i].SHA != recordHash(r) {
			bad++
		}
	}
	if len(want) > len(recs) {
		bad += len(want) - len(recs)
	}
	return bad
}

// writeDigests runs every paper workload at every combination of its
// declared scales and writes the reference file.
func writeDigests(path string) error {
	d := digestFile{Experiments: map[string][]recordDigest{}}
	for _, pw := range []paperWorkload{paperMTA, paperSMP} {
		for ci, scales := range pw.combinations() {
			it, err := paperIteration(pw, scales, nil)
			if err != nil {
				return err
			}
			for _, id := range pw.experiments {
				d.Experiments[digestKey(id, it.recs[id])] = digestsOf(it.recs[id])
			}
			if pw.name == paperMTA.name && ci == 0 {
				d.SimProbeProcs = int(it.maxLiveMedian())
			}
		}
	}
	buf, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
