// Package run is the typed execution API between the workload registry and
// everything that wants numbers out of it: a Spec is a serializable,
// individually addressable description of one benchmark run (workload ×
// variant × platform × scale × params), and a Record is the machine-readable
// result of executing it (simulated seconds, checksum, overhead, engine
// statistics). The Runner owns the memoized scenario suites and single-flight
// result caches that used to be private to internal/experiments, so any
// consumer — the experiment tables, the CLIs, the benchmarks, CI — executes
// runs through one shared, deduplicated path, and a Record re-executed from
// its own Spec reproduces the same simulated seconds and checksum.
//
// This is the Task Bench separation of task description from runner: adding
// a workload or a consumer is O(1) integration work, and a serialized
// Spec/Record pair is the wire format any future serving or sharding layer
// would speak.
package run

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/c3i/suite"
	"repro/internal/machine"
	"repro/internal/mta"
	"repro/internal/platforms"
)

// Spec describes one benchmark run. The zero values of Scale and Params are
// meaningful: Normalized fills them from the registry (the workload's default
// scale, the variant's default params), so two Specs that differ only in how
// explicitly they spell the defaults share one canonical Key.
type Spec struct {
	// Workload is a registered workload name ("threat-analysis").
	Workload string `json:"workload"`
	// Variant is one of the workload's program styles ("coarse").
	Variant string `json:"variant"`
	// Platform is a paper platform key ("alpha", "ppro", "exemplar", "tera").
	Platform string `json:"platform"`
	// Procs is the processor count the platform model is built with.
	Procs int `json:"procs"`
	// Scale is the fraction of the paper-scale workload to run; non-positive
	// means the workload's registered default.
	Scale float64 `json:"scale,omitempty"`
	// Params are the variant's tunables, merged over the variant defaults.
	Params suite.Params `json:"params,omitempty"`
	// Validate requests a fully-computed, checksummed output (the registry's
	// ValidateParam); without it variants may run in charge-only mode.
	Validate bool `json:"validate,omitempty"`
	// NetLatencyMult and NetBandwidthEff, when non-zero, override the Tera
	// MTA's network-maturity factors (the ablations' and projections' knob);
	// they are only valid with Platform "tera".
	NetLatencyMult  float64 `json:"net_latency_mult,omitempty"`
	NetBandwidthEff float64 `json:"net_bandwidth_eff,omitempty"`
}

// Normalized resolves the Spec against the registries and returns its
// canonical form: defaults merged into Params, Scale defaulted, the reserved
// validate param folded into the Validate flag. Two Specs describing the same
// run normalize to equal values (and therefore equal Keys). Normalizing an
// already-normalized Spec is the identity.
func (s Spec) Normalized() (Spec, error) {
	w, err := suite.Lookup(s.Workload)
	if err != nil {
		return Spec{}, err
	}
	v, err := w.Variant(s.Variant)
	if err != nil {
		return Spec{}, err
	}
	if _, err := platforms.Get(s.Platform); err != nil {
		return Spec{}, err
	}
	if s.Procs < 1 {
		return Spec{}, fmt.Errorf("run: spec %s/%s needs a positive proc count, got %d", s.Workload, s.Variant, s.Procs)
	}
	// The AlphaStation model is built with one processor whatever Procs
	// says, so a larger count would file the one-processor run under a
	// second key that claims more processors than it ran on.
	if s.Platform == "alpha" && s.Procs > 1 {
		return Spec{}, fmt.Errorf("run: platform alpha has one processor, not %d", s.Procs)
	}
	if s.NetLatencyMult != 0 || s.NetBandwidthEff != 0 {
		if s.Platform != "tera" {
			return Spec{}, fmt.Errorf("run: network overrides apply only to platform tera, not %q", s.Platform)
		}
		// Canonicalize the overrides like Params: a partial override is
		// filled from the calibrated defaults, and a Spec that spells the
		// defaults out describes the same engine as one that omits them, so
		// both must render one Key.
		d := mta.DefaultParams(s.Procs)
		if s.NetLatencyMult == 0 {
			s.NetLatencyMult = d.NetLatencyMult
		}
		if s.NetBandwidthEff == 0 {
			s.NetBandwidthEff = d.NetBandwidthEff
		}
		if s.NetLatencyMult == d.NetLatencyMult && s.NetBandwidthEff == d.NetBandwidthEff {
			s.NetLatencyMult, s.NetBandwidthEff = 0, 0
		}
	}
	if s.Scale <= 0 {
		s.Scale = w.DefaultScale
	}
	p := s.Params.Merged(v.Defaults)
	if p[suite.ValidateParam] != 0 {
		s.Validate = true
	}
	delete(p, suite.ValidateParam)
	if len(p) == 0 {
		p = nil
	}
	s.Params = p
	return s, nil
}

// Key renders the Spec's canonical cache/artifact key. Specs that normalize
// equal render equal keys regardless of param order or how many defaults the
// caller spelled out. A Spec that cannot be normalized (e.g. its workload is
// not registered in this process) renders as-is, so Records deserialized in
// registry-less tools keep the keys they were written with.
func (s Spec) Key() string {
	if ns, err := s.Normalized(); err == nil {
		s = ns
	}
	return s.render()
}

// render formats the key fields; Params render sorted via Params.String.
func (s Spec) render() string {
	key := fmt.Sprintf("%s|%s|%s|p%d|s%g|%s", s.Workload, s.Variant, s.Platform, s.Procs, s.Scale, s.Params.String())
	if s.Validate {
		key += "|validate"
	}
	if s.NetLatencyMult != 0 || s.NetBandwidthEff != 0 {
		key += fmt.Sprintf("|net%g/%g", s.NetLatencyMult, s.NetBandwidthEff)
	}
	return key
}

// engine returns a constructor for the Spec's machine model. Every engine a
// Spec can describe is built here — consumers never construct machine.Engine
// values for registered variants themselves.
func (s Spec) engine() (func() *machine.Engine, error) {
	if s.NetLatencyMult != 0 || s.NetBandwidthEff != 0 {
		if s.Platform != "tera" {
			return nil, fmt.Errorf("run: network overrides apply only to platform tera, not %q", s.Platform)
		}
		p := mta.DefaultParams(s.Procs)
		if s.NetLatencyMult != 0 {
			p.NetLatencyMult = s.NetLatencyMult
		}
		if s.NetBandwidthEff != 0 {
			p.NetBandwidthEff = s.NetBandwidthEff
		}
		return func() *machine.Engine { return mta.New(p) }, nil
	}
	spec, err := platforms.Get(s.Platform)
	if err != nil {
		return nil, err
	}
	procs := s.Procs
	return func() *machine.Engine { return spec.New(procs) }, nil
}

// Checksum is a 64-bit output checksum that serializes as a quoted
// fixed-width hex string: JSON numbers cannot carry a full uint64.
type Checksum uint64

// MarshalJSON renders the checksum as "%016x".
func (c Checksum) MarshalJSON() ([]byte, error) {
	return json.Marshal(fmt.Sprintf("%016x", uint64(c)))
}

// UnmarshalJSON parses the quoted hex form. Only the canonical encoding
// MarshalJSON emits — exactly 16 lowercase hex digits — is accepted:
// strconv-style relaxed parsing (a leading "+", short widths, uppercase)
// would let byte-different artifacts decode to the same checksum value, and
// a checksum that compares equal for different spellings is no checksum.
func (c *Checksum) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("run: checksum: %w", err)
	}
	if len(s) != 16 {
		return fmt.Errorf("run: checksum %q: need exactly 16 lowercase hex digits", s)
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		d := s[i]
		switch {
		case d >= '0' && d <= '9':
			v = v<<4 | uint64(d-'0')
		case d >= 'a' && d <= 'f':
			v = v<<4 | uint64(d-'a'+10)
		default:
			return fmt.Errorf("run: checksum %q: need exactly 16 lowercase hex digits", s)
		}
	}
	*c = Checksum(v)
	return nil
}

// Record is the machine-readable result of executing one Spec. The Spec
// stored inside is the normalized form, so a Record is self-reproducing:
// re-running record.Spec yields the same ModelSeconds and Checksum.
type Record struct {
	Spec Spec `json:"spec"`
	// Key is Spec.Key(), precomputed so registry-less consumers (the CI
	// gate) can address the record without normalizing.
	Key string `json:"key"`
	// ModelSeconds is the simulated wall-clock time of the run at its scale.
	ModelSeconds float64 `json:"model_seconds"`
	// PaperSeconds is ModelSeconds normalized to the paper's scale-1
	// workload size — the number the tables print next to the paper column.
	PaperSeconds float64 `json:"paper_seconds"`
	// Checksum is the validated output checksum (zero for charge-only runs).
	// A single-scenario run reports the scenario's own checksum; a suite run
	// folds the per-scenario checksums in order.
	Checksum Checksum `json:"checksum"`
	// OverheadBytes is the largest private-buffer allocation any scenario
	// charged — the coarse styles' memory-overhead drawback.
	OverheadBytes uint64 `json:"overhead_bytes"`
	// Stats are the engine's counters (utilization, sync ops, spawns, …).
	Stats machine.Stats `json:"stats"`
	// HostElapsed is the host wall-clock cost of computing the record; a
	// cache hit returns the original computation's value.
	HostElapsed time.Duration `json:"host_elapsed_ns"`
}

// ExperimentRecords groups the records one experiment executed — the element
// type of `c3ibench -json` output and the input of the CI gate's model_s
// family.
type ExperimentRecords struct {
	Experiment string   `json:"experiment"`
	Title      string   `json:"title"`
	ElapsedS   float64  `json:"elapsed_s"`
	Records    []Record `json:"records"`
}

// ExperimentFailure names one requested experiment that produced no records,
// and why — the failure manifest entry of `c3ibench -json`.
type ExperimentFailure struct {
	Experiment string `json:"experiment"`
	Error      string `json:"error"`
}

// RecordSet is the envelope `c3ibench -json` emits: every experiment that
// completed, plus an explicit manifest of the ones that failed. A consumer
// gating on the artifact (the CI model_s family) can therefore tell a
// complete sweep from a partial one instead of silently accepting whatever
// subset happened to succeed. Both slices are present in the JSON even when
// empty (`[]`, never `null`), so `jq '.failed == []'` is a complete-sweep
// check.
type RecordSet struct {
	Experiments []ExperimentRecords `json:"experiments"`
	Failed      []ExperimentFailure `json:"failed"`
}

// Canonicalize replaces nil slices with empty ones so the envelope always
// serializes its arrays explicitly.
func (rs *RecordSet) Canonicalize() {
	if rs.Experiments == nil {
		rs.Experiments = []ExperimentRecords{}
	}
	if rs.Failed == nil {
		rs.Failed = []ExperimentFailure{}
	}
}
