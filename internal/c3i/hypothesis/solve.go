package hypothesis

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/threads"
)

// Costs is the charging calibration for the Hypothesis Testing kernel:
// abstract operations and memory references per unit of scoring work. The
// scoring scan streams the observation and hypothesis arrays; evidence
// commits are scatter-add read-modify-writes of score words at
// hypothesis-indexed addresses (dependent loads — cheap under a cache,
// exposed latency on the cache-less MTA); the coarse merge streams private
// partial buffers back into the shared scores.
type Costs struct {
	OpsPerPair       int64 // per (hypothesis, observation) test: predict, residual, compare
	ObsRefsPerObs    int   // streamed reads of the observation stream, per observation
	HypRefsPerPair   int   // streamed reads of the hypothesis-state array
	OpsPerUpdate     int64 // per gated pair: evidence add
	DepRefsPerUpdate int   // dependent loads: scattered score read-modify-writes
	OpsPerMerge      int64 // per (hypothesis, worker) partial merged in the coarse reduction
	SerialOpsPerObs  int64 // serial driver work per observation
	ObsBatch         int   // observations per charging batch (event-count control)
}

// DefaultCosts is the calibrated cost set (see Costs).
var DefaultCosts = Costs{
	OpsPerPair:       11,
	ObsRefsPerObs:    1,
	HypRefsPerPair:   1,
	OpsPerUpdate:     6,
	DepRefsPerUpdate: 2,
	OpsPerMerge:      4,
	SerialOpsPerObs:  3,
	ObsBatch:         64,
}

// FineDefaultCosts is the calibration for the restructured fine-grained
// kernel: within one claimed observation the score loads of different gated
// hypotheses are independent, so the Tera compiler's lookahead pipelines
// them — only the final read-modify-write stays dependent. Total references
// per update are unchanged; only the dependent share drops (the same
// restructuring as the other workloads' fine variants).
var FineDefaultCosts = Costs{
	OpsPerPair:       DefaultCosts.OpsPerPair,
	ObsRefsPerObs:    DefaultCosts.ObsRefsPerObs,
	HypRefsPerPair:   DefaultCosts.HypRefsPerPair + DefaultCosts.DepRefsPerUpdate - 1,
	OpsPerUpdate:     DefaultCosts.OpsPerUpdate,
	DepRefsPerUpdate: 1,
	OpsPerMerge:      DefaultCosts.OpsPerMerge,
	SerialOpsPerObs:  DefaultCosts.SerialOpsPerObs,
	ObsBatch:         DefaultCosts.ObsBatch,
}

const (
	// fineClaim is how many observations one fetch-and-add claims in the
	// fine-grained variant: one — the purest Tera style, a thread per
	// observation, so the crowd is limited by the stream, not by batching.
	fineClaim = 1
	// fineStripes is the number of full/empty guard words striped over the
	// running scores in the fine-grained variant.
	fineStripes = 64
)

// Layout holds the simulated-memory placement of a scenario's arrays.
type Layout struct {
	Scenario *Scenario
	Costs    Costs
	Hyps     *mem.Region // hypothesis states (input, streamed by the scan)
	Obs      *mem.Region // observation stream (input, streamed)
	Scores   *mem.Region // running evidence scores (scattered, contested)
}

// NewLayout allocates the scenario's arrays in the machine's address space.
func NewLayout(t *machine.Thread, s *Scenario, c Costs) *Layout {
	if c == (Costs{}) {
		c = DefaultCosts
	}
	nh, no := uint64(len(s.Hyps)), uint64(len(s.Obs))
	return &Layout{
		Scenario: s,
		Costs:    c,
		Hyps:     t.Alloc(s.Name+" hyps", nh*24),
		Obs:      t.Alloc(s.Name+" obs", (no+1)*16),
		Scores:   t.Alloc(s.Name+" scores", (nh+1)*8),
	}
}

// scatterStride spaces scattered references one cache line apart: evidence
// commits land on hypotheses all over the score array, so consecutive
// references land on different lines.
const scatterStride = 64

// chargeScan charges one batch of the scoring scan: streamed observation
// reads plus pair tests streaming the hypothesis array.
func (lay *Layout) chargeScan(t *machine.Thread, obsN, pairs int) {
	if obsN == 0 && pairs == 0 {
		return
	}
	c := lay.Costs
	t.Compute(int64(pairs) * c.OpsPerPair)
	t.BurstWrapped(lay.Obs, 16, 16, obsN*c.ObsRefsPerObs, false, false)
	t.BurstWrapped(lay.Hyps, 24, 24, pairs*c.HypRefsPerPair, false, false)
}

// chargeUpdates charges one batch of evidence commits into a score array —
// the shared scores or a worker's private partial buffer: scattered
// read-modify-writes plus the stores.
func (lay *Layout) chargeUpdates(t *machine.Thread, r *mem.Region, gated int) {
	if gated == 0 {
		return
	}
	c := lay.Costs
	t.Compute(int64(gated) * c.OpsPerUpdate)
	t.BurstWrapped(r, scatterStride, 8, gated*c.DepRefsPerUpdate, false, true)
	t.BurstWrapped(r, scatterStride, 8, gated, true, false)
}

// chargeMerge charges merging a range of n hypotheses from every private
// partial buffer into the shared scores: one streamed pass over each
// buffer's range, and one score read and write per hypothesis (the range is
// summed in registers across buffers, not re-read per buffer).
func (lay *Layout) chargeMerge(t *machine.Thread, privs []*mem.Region, n int) {
	if n == 0 {
		return
	}
	t.Compute(int64(n) * int64(len(privs)) * lay.Costs.OpsPerMerge)
	for _, r := range privs {
		t.BurstWrapped(r, 8, 8, n, false, false)
	}
	t.BurstWrapped(lay.Scores, 8, 8, n, false, false)
	t.BurstWrapped(lay.Scores, 8, 8, n, true, false)
}

// chargeFinish charges the final pruning reduction: two streaming passes
// over the scores (best, then survivors) on the calling thread — identical
// in every variant.
func (lay *Layout) chargeFinish(t *machine.Thread) {
	nh := len(lay.Scenario.Hyps)
	t.Compute(int64(nh) * 4)
	t.BurstWrapped(lay.Scores, 8, 8, 2*nh, false, false)
}

// Output is a solver's result: the full evidence-score vector (identical
// across all variants — integer addition commutes), the best score, the
// surviving hypothesis ids after pruning, the gated pairs scored, and the
// private partial-score storage the coarse style pays.
type Output struct {
	Scores       []int64 // per-hypothesis total evidence, hypothesis order
	Best         int64   // maximum score
	Survivors    []int32 // hypothesis ids that survive the prune, ascending
	Gated        int64   // gated (hypothesis, observation) pairs scored
	PartialBytes uint64  // private partial-score storage (coarse only)
}

// Params bundles the scoring controls shared by every variant. Gate is the
// gating-window radius; Prune the survival threshold in per-mille of the
// best score (0 keeps every supported hypothesis, 1000 only the best).
type Params struct {
	Gate  int
	Prune int
}

// DefaultParams returns the scoring controls every variant defaults to.
func DefaultParams() Params {
	return Params{Gate: DefaultGate, Prune: DefaultPrune}
}

func (p Params) validate() {
	if p.Gate < 1 {
		panic(fmt.Sprintf("hypothesis: gating window %d, need ≥ 1", p.Gate))
	}
	if p.Prune < 0 || p.Prune > 1000 {
		panic(fmt.Sprintf("hypothesis: prune threshold %d‰, need 0..1000", p.Prune))
	}
}

// finish derives the pruned output from the merged score vector — identical
// arithmetic in every variant, charged as two streaming passes.
func (lay *Layout) finish(t *machine.Thread, scores []int64, prune int, out *Output) *Output {
	lay.chargeFinish(t)
	out.Scores = scores
	for _, s := range scores {
		if s > out.Best {
			out.Best = s
		}
	}
	for i, s := range scores {
		if s > 0 && s*1000 >= out.Best*int64(prune) {
			out.Survivors = append(out.Survivors, int32(i))
		}
	}
	return out
}

// Sequential is the reference program: one scoring loop over the
// observation stream, entirely on the calling thread.
func Sequential(t *machine.Thread, s *Scenario) *Output {
	return SequentialWithCosts(t, s, DefaultParams(), DefaultCosts)
}

// SequentialWithCosts is Sequential with explicit scoring controls and cost
// calibration.
func SequentialWithCosts(t *machine.Thread, s *Scenario, p Params, c Costs) *Output {
	p.validate()
	lay := NewLayout(t, s, c)
	out := &Output{}
	scores := make([]int64, len(s.Hyps))

	obsN, pairs, gated := 0, 0, 0
	for _, o := range s.Obs {
		for j := range s.Hyps {
			if sc, ok := s.PairScore(s.Hyps[j], o, p.Gate); ok {
				scores[j] += sc
				gated++
			}
		}
		obsN, pairs = obsN+1, pairs+len(s.Hyps)
		if obsN == lay.Costs.ObsBatch {
			t.Compute(int64(obsN) * lay.Costs.SerialOpsPerObs)
			lay.chargeScan(t, obsN, pairs)
			lay.chargeUpdates(t, lay.Scores, gated)
			out.Gated += int64(gated)
			obsN, pairs, gated = 0, 0, 0
		}
	}
	t.Compute(int64(obsN) * lay.Costs.SerialOpsPerObs)
	lay.chargeScan(t, obsN, pairs)
	lay.chargeUpdates(t, lay.Scores, gated)
	out.Gated += int64(gated)
	return lay.finish(t, scores, p.Prune, out)
}

// Coarse is the manual parallelization in the style of Programs 2 and 4: a
// persistent crew of worker threads — created once per run — partitions the
// observation stream, accumulates evidence into oversized private
// partial-score buffers (the storage drawback: every worker carries a full
// score vector however few hypotheses its chunk touches), then meets at a
// barrier and runs a per-hypothesis merge reduction, each worker summing a
// disjoint hypothesis range across all the partial buffers. Deterministic
// by construction.
func Coarse(t *machine.Thread, s *Scenario, workers int) *Output {
	return CoarseWithCosts(t, s, workers, DefaultParams(), DefaultCosts)
}

// CoarseWithCosts is Coarse with explicit scoring controls and calibration.
func CoarseWithCosts(t *machine.Thread, s *Scenario, workers int, p Params, c Costs) *Output {
	p.validate()
	if workers < 1 {
		panic("hypothesis: Coarse needs ≥ 1 worker")
	}
	lay := NewLayout(t, s, c)
	out := &Output{}
	nh := len(s.Hyps)
	scores := make([]int64, nh)

	priv := make([]*mem.Region, workers)
	partials := make([][]int64, workers)
	gatedBy := make([]int64, workers)
	for w := range priv {
		priv[w] = t.Alloc(fmt.Sprintf("%s partial[%d]", s.Name, w), uint64(nh)*8)
		out.PartialBytes += priv[w].Size
		partials[w] = make([]int64, nh)
	}

	// The crew lives across both phases; the barrier separates scoring from
	// merging, so every partial buffer is complete before any range of it is
	// reduced.
	bar := t.NewBarrier(s.Name+" phase", workers+1)
	ws := make([]*machine.Thread, workers)
	for w := 0; w < workers; w++ {
		w := w
		ws[w] = t.Go(fmt.Sprintf("%s worker[%d]", s.Name, w), func(wt *machine.Thread) {
			// Phase 1: score my observation chunk into my private partials.
			lo, hi := threads.ChunkBounds(len(s.Obs), workers, w)
			gatedBy[w] = lay.scoreSpan(wt, s.Obs[lo:hi], p.Gate, partials[w], priv[w])
			bar.Arrive(wt)
			// Phase 2: merge my hypothesis range from every partial buffer.
			lo, hi = threads.ChunkBounds(nh, workers, w)
			for _, part := range partials {
				for j := lo; j < hi; j++ {
					scores[j] += part[j]
				}
			}
			lay.chargeMerge(wt, priv, hi-lo)
		})
	}
	bar.Arrive(t)
	t.JoinAll(ws)
	for _, g := range gatedBy {
		out.Gated += g
	}
	return lay.finish(t, scores, p.Prune, out)
}

// scoreSpan scores a span of the observation stream into a score array
// (private partials for the coarse crew), charging in ObsBatch batches.
func (lay *Layout) scoreSpan(wt *machine.Thread, span []Observation, gate int, dst []int64, r *mem.Region) int64 {
	s := lay.Scenario
	var total int64
	obsN, pairs, gated := 0, 0, 0
	for _, o := range span {
		for j := range s.Hyps {
			if sc, ok := s.PairScore(s.Hyps[j], o, gate); ok {
				dst[j] += sc
				gated++
			}
		}
		obsN, pairs = obsN+1, pairs+len(s.Hyps)
		if obsN == lay.Costs.ObsBatch {
			lay.chargeScan(wt, obsN, pairs)
			lay.chargeUpdates(wt, r, gated)
			total += int64(gated)
			obsN, pairs, gated = 0, 0, 0
		}
	}
	lay.chargeScan(wt, obsN, pairs)
	lay.chargeUpdates(wt, r, gated)
	return total + int64(gated)
}

// Fine is the Tera style: threads claim observations one at a time with an
// atomic fetch-and-add on a shared stream cursor and commit each evidence
// increment immediately into the shared scores through a full/empty guard
// word (striped over the score array). No private buffers, nondeterministic
// commit order — evidence addition commutes, so the score vector is
// identical anyway.
func Fine(t *machine.Thread, s *Scenario, threadsN int) *Output {
	return FineWithCosts(t, s, threadsN, DefaultParams(), FineDefaultCosts)
}

// FineWithCosts is Fine with explicit scoring controls and calibration.
func FineWithCosts(t *machine.Thread, s *Scenario, threadsN int, p Params, c Costs) *Output {
	p.validate()
	if threadsN < 1 {
		panic("hypothesis: Fine needs ≥ 1 thread")
	}
	lay := NewLayout(t, s, c)
	out := &Output{}
	scores := make([]int64, len(s.Hyps))

	nth := (len(s.Obs) + fineClaim - 1) / fineClaim
	if nth > threadsN {
		nth = threadsN
	}
	if nth <= 1 {
		out.Gated = lay.scoreSpan(t, s.Obs, p.Gate, scores, lay.Scores)
		return lay.finish(t, scores, p.Prune, out)
	}

	// Full/empty guard words striped over the score array, created full: a
	// committer empties the word (readFE), adds its evidence, and refills it
	// (writeEF).
	stripes := make([]*machine.SyncVar, fineStripes)
	for i := range stripes {
		stripes[i] = t.NewSyncVar(fmt.Sprintf("%s fe[%d]", s.Name, i))
		stripes[i].Write(t, 0)
	}

	claim := t.NewCounter(s.Name+" claim", 0)
	gatedBy := make([]int64, nth)
	ws := make([]*machine.Thread, nth)
	for i := 0; i < nth; i++ {
		i := i
		ws[i] = t.Go(fmt.Sprintf("%s score[%d]", s.Name, i), func(ct *machine.Thread) {
			for {
				k := int(claim.Add(ct, fineClaim))
				if k >= len(s.Obs) {
					return
				}
				hi := k + fineClaim
				if hi > len(s.Obs) {
					hi = len(s.Obs)
				}
				gatedBy[i] += lay.fineSpan(ct, s.Obs[k:hi], p.Gate, scores, stripes)
			}
		})
	}
	t.JoinAll(ws)
	for _, g := range gatedBy {
		out.Gated += g
	}
	return lay.finish(t, scores, p.Prune, out)
}

// fineSpan scores one claimed span of observations, committing each gated
// increment through its hypothesis's full/empty guard stripe.
func (lay *Layout) fineSpan(ct *machine.Thread, span []Observation, gate int,
	scores []int64, stripes []*machine.SyncVar) int64 {

	s := lay.Scenario
	pairs, gated := 0, 0
	for _, o := range span {
		for j := range s.Hyps {
			sc, ok := s.PairScore(s.Hyps[j], o, gate)
			if !ok {
				continue
			}
			sv := stripes[j%len(stripes)]
			sv.ReadFE(ct)
			scores[j] += sc
			sv.WriteEF(ct, 0)
			gated++
		}
		pairs += len(s.Hyps)
	}
	lay.chargeScan(ct, len(span), pairs)
	lay.chargeUpdates(ct, lay.Scores, gated)
	return int64(gated)
}

// CoarsePartialBytesFullScale returns the private partial-score storage the
// coarse crew needs for the given worker count at the full C3I hypothesis
// space (a couple of million candidate hypotheses under dense multi-sensor
// ambiguity, 8-byte accumulators, every worker carrying the full score
// vector). Like the other workloads' private buffers, this is what makes
// the coarse style impractical at the hundreds of streams the MTA needs.
func CoarsePartialBytesFullScale(workers int) uint64 {
	const fullHyps = 1 << 21
	return uint64(workers) * fullHyps * 8
}
