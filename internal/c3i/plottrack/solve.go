package plottrack

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/threads"
)

// Costs is the charging calibration for the Plot-Track Assignment kernel:
// abstract operations and memory references per unit of auction work. The
// gating scan streams the track database; bid computation chases prices at
// assignment-scattered addresses (dependent loads — cheap under a cache,
// exposed latency on the cache-less MTA); commits touch the price and
// ownership words of contested tracks.
type Costs struct {
	OpsPerGate        int64 // per (plot, track) gate test: deltas, compare
	StreamRefsPerGate int   // streamed reads of the track state array
	OpsPerCand        int64 // per candidate scanned while bidding: add, compare
	DepRefsPerCand    int   // dependent loads: scattered price reads
	StreamRefsPerCand int   // streamed reads of the candidate list
	OpsPerCommit      int64 // per bid commit: price compare, owner swap
	DepRefsPerCommit  int   // scattered price/owner reads and writes
	SerialOpsPerPlot  int64 // serial driver work per queued plot
	BidBatch          int   // bids per charging batch (event-count control)
}

// DefaultCosts is the calibrated cost set (see Costs).
var DefaultCosts = Costs{
	OpsPerGate:        9,
	StreamRefsPerGate: 1,
	OpsPerCand:        22,
	DepRefsPerCand:    2,
	StreamRefsPerCand: 1,
	OpsPerCommit:      18,
	DepRefsPerCommit:  3,
	SerialOpsPerPlot:  3,
	BidBatch:          128,
}

// FineDefaultCosts is the calibration for the restructured fine-grained
// kernel: within one claimed batch of plots the price loads of different
// candidates are independent, so the Tera compiler's lookahead pipelines
// them — only the final compare chain stays dependent. Total references per
// candidate are unchanged; only the dependent share drops (the same
// restructuring as Terrain Masking's Feo kernel and Route Optimization's
// fine variant).
var FineDefaultCosts = Costs{
	OpsPerGate:        DefaultCosts.OpsPerGate,
	StreamRefsPerGate: DefaultCosts.StreamRefsPerGate,
	OpsPerCand:        DefaultCosts.OpsPerCand,
	DepRefsPerCand:    1,
	StreamRefsPerCand: DefaultCosts.StreamRefsPerCand + DefaultCosts.DepRefsPerCand - 1,
	OpsPerCommit:      DefaultCosts.OpsPerCommit,
	DepRefsPerCommit:  DefaultCosts.DepRefsPerCommit,
	SerialOpsPerPlot:  DefaultCosts.SerialOpsPerPlot,
	BidBatch:          DefaultCosts.BidBatch,
}

// PipelinedCosts is the perfect-lookahead ablation calibration: every
// dependent load re-priced as pipelined streaming traffic (same total
// references, no exposed-latency chains).
func PipelinedCosts() Costs {
	c := DefaultCosts
	c.StreamRefsPerCand += c.DepRefsPerCand
	c.DepRefsPerCand = 0
	return c
}

// DefaultEpsilon is the auction's ε in scaled cost units. Costs are scaled
// by #plots+1 internally, so ε = 1 satisfies n·ε < scale and the
// ε-complementary-slackness assignment is exactly optimal — the setting
// every variant must share for the golden checksums to agree. Larger values
// trade assignment quality for fewer bids. (No ε-scaling schedule is run:
// bids jump straight to the runner-up's reservation level, so price wars
// are short even at ε = 1 — and with more objects than bidders, carrying
// prices across ε phases would break the optimality bound anyway.)
const DefaultEpsilon = 1

const (
	// fineClaim is how many unassigned plots one fetch-and-add claims in the
	// fine-grained variant: one — the purest Tera style, a thread per plot,
	// so the crowd is limited by the frame, not by batching.
	fineClaim = 1
	// fineStripes is the number of full/empty track-ownership guard words
	// striped over the track database in the fine-grained variant.
	fineStripes = 64
)

// Layout holds the simulated-memory placement of a scenario's arrays.
type Layout struct {
	Scenario *Scenario
	Costs    Costs
	Tracks   *mem.Region // track states (input, streamed by the gate scan)
	Plots    *mem.Region // one frame of plot measurements (input)
	Cands    *mem.Region // gated candidate lists (built per frame, then streamed)
	Prices   *mem.Region // track + new-slot auction prices (scattered)
	Owners   *mem.Region // track ownership words (scattered, contested)
}

// framePlots returns the scenario's per-frame plot count (frames are
// generated at one size).
func (s *Scenario) framePlots() int {
	if len(s.Frames) == 0 {
		return 0
	}
	return len(s.Frames[0])
}

// NewLayout allocates the scenario's arrays in the machine's address space.
func NewLayout(t *machine.Thread, s *Scenario, c Costs) *Layout {
	if c == (Costs{}) {
		c = DefaultCosts
	}
	nt, np := uint64(len(s.Tracks)), uint64(s.framePlots())
	return &Layout{
		Scenario: s,
		Costs:    c,
		Tracks:   t.Alloc(s.Name+" tracks", nt*16),
		Plots:    t.Alloc(s.Name+" plots", (np+1)*16),
		Cands:    t.Alloc(s.Name+" cands", (np*8+1)*8),
		Prices:   t.Alloc(s.Name+" prices", (nt+np+1)*8),
		Owners:   t.Alloc(s.Name+" owners", (nt+1)*8),
	}
}

// scatterStride spaces scattered references one cache line apart: bids land
// on tracks all over the database, so consecutive references land on
// different lines.
const scatterStride = 64

// chargeGate charges one batch of the gating scan: per-plot measurement
// reads, pair tests streaming the track database, and stores of the gated
// candidates found.
func (lay *Layout) chargeGate(t *machine.Thread, plots, pairs, gated int) {
	if pairs == 0 && gated == 0 {
		return
	}
	c := lay.Costs
	t.Compute(int64(pairs)*c.OpsPerGate + int64(gated)*4)
	t.BurstWrapped(lay.Plots, 16, 16, plots, false, false)
	t.BurstWrapped(lay.Tracks, 16, 16, pairs*c.StreamRefsPerGate, false, false)
	t.BurstWrapped(lay.Cands, 8, 8, gated, true, false)
}

// chargeBids charges one batch of bid computation: candidate-list streaming
// plus scattered price reads.
func (lay *Layout) chargeBids(t *machine.Thread, cands int) {
	if cands == 0 {
		return
	}
	c := lay.Costs
	t.Compute(int64(cands) * c.OpsPerCand)
	t.BurstWrapped(lay.Cands, 8, 8, cands*c.StreamRefsPerCand, false, false)
	t.BurstWrapped(lay.Prices, scatterStride, 8, cands*c.DepRefsPerCand, false, true)
}

// chargeCommits charges one batch of bid commits: scattered price and
// ownership updates.
func (lay *Layout) chargeCommits(t *machine.Thread, n int) {
	if n == 0 {
		return
	}
	c := lay.Costs
	t.Compute(int64(n) * c.OpsPerCommit)
	t.BurstWrapped(lay.Prices, scatterStride, 8, n*c.DepRefsPerCommit, false, true)
	t.BurstWrapped(lay.Prices, scatterStride, 8, n, true, false)
	t.BurstWrapped(lay.Owners, scatterStride, 8, n, true, false)
}

// chargeStage charges staging n bids into a private buffer (the coarse
// variant's Program 2-style oversized per-worker arrays).
func (lay *Layout) chargeStage(t *machine.Thread, buf *mem.Region, n int) {
	if n <= 0 {
		return
	}
	t.Compute(int64(n) * 4)
	t.BurstWrapped(buf, 24, 24, n, true, false)
}

// Output is a solver's result: the minimum assignment cost of every frame
// (in frame order — identical across all variants), the assignment
// breakdown, the bids computed (the parallel variants lose some races and
// re-bid), and the private bid-buffer storage the coarse style pays.
type Output struct {
	FrameCost      []int64 // per-frame minimum assignment cost, original units
	Assigned       int     // plot-track matches over all frames
	NewTracks      int     // plots that opened new tracks, over all frames
	Bids           int64   // bids computed (≥ plots; races add re-bids)
	BidBufferBytes uint64  // private bid-staging storage (coarse only)
}

// Params bundles the auction controls shared by every variant. Gate is the
// gating-window radius, Epsilon the ε in scaled cost units (DefaultEpsilon
// guarantees the exact optimum), Rounds a convergence guard: the parallel
// styles fail after that many bid/commit rounds per frame and the
// sequential style after Rounds×plots bids (0 = no limit).
type Params struct {
	Gate    int
	Epsilon int
	Rounds  int
}

// DefaultParams returns the auction controls every variant defaults to.
func DefaultParams() Params {
	return Params{Gate: DefaultGate, Epsilon: DefaultEpsilon, Rounds: 0}
}

func (p Params) validate() {
	if p.Gate < 1 {
		panic(fmt.Sprintf("plottrack: gate radius %d, need ≥ 1", p.Gate))
	}
	if p.Epsilon < 1 {
		panic(fmt.Sprintf("plottrack: auction epsilon %d, need ≥ 1", p.Epsilon))
	}
	if p.Rounds < 0 {
		panic(fmt.Sprintf("plottrack: %d auction rounds, need ≥ 0", p.Rounds))
	}
}

// overranGuard panics with a convergence-guard diagnostic.
func overranGuard(rounds int) {
	panic(fmt.Sprintf("plottrack: auction did not converge within the %d-round guard", rounds))
}

// auction is the shared working state of one frame's assignment auction.
// Costs are scaled by #plots+1 so that the ε = DefaultEpsilon auction
// terminates with the exact minimum-cost assignment; prices only ever rise,
// which is what makes the asynchronous variants sound.
type auction struct {
	scen     *Scenario
	frame    []Plot
	scaleF   int64
	newCost  int64     // scaled cost of a plot's private new-track slot
	cands    [][]int32 // per plot: gated track ids
	costs    [][]int64 // per plot: scaled pair costs, aligned with cands
	price    []int64   // per track: current auction price
	newPrice []int64   // per plot: price of its private new-track slot
	owner    []int32   // per track: owning plot, -1 = free
	assigned []int32   // per plot: track, newSlot for a new track, unassigned
}

const (
	newSlot    = int32(-1)
	unassigned = int32(-2)
)

func newAuction(s *Scenario, gate int, frame []Plot) *auction {
	a := &auction{
		scen:     s,
		frame:    frame,
		scaleF:   int64(len(frame)) + 1,
		cands:    make([][]int32, len(frame)),
		costs:    make([][]int64, len(frame)),
		price:    make([]int64, len(s.Tracks)),
		newPrice: make([]int64, len(frame)),
		owner:    make([]int32, len(s.Tracks)),
		assigned: make([]int32, len(frame)),
	}
	a.newCost = NewTrackCost(gate) * a.scaleF
	for j := range a.owner {
		a.owner[j] = -1
	}
	for i := range a.assigned {
		a.assigned[i] = unassigned
	}
	return a
}

// gatePlot builds plot i's gated candidate list, returning the pairs tested
// and the candidates found (for charging).
func (a *auction) gatePlot(i, gate int) (pairs, gated int) {
	p := a.frame[i]
	for j, tr := range a.scen.Tracks {
		if c, ok := a.scen.PairCost(p, tr, gate); ok {
			a.cands[i] = append(a.cands[i], int32(j))
			a.costs[i] = append(a.costs[i], c*a.scaleF)
			gated++
		}
	}
	return len(a.scen.Tracks), gated
}

// bid computes plot i's bid under the current prices: the chosen option
// (candidate index, or -1 for the plot's private new-track slot), the price
// the option will be raised to, and the options scanned (for charging). The
// bid price makes the chosen option worse than the runner-up by exactly ε —
// ε-complementary slackness — and since prices only rise, a bid committed
// against newer prices still satisfies it.
func (a *auction) bid(i int, eps int64) (choice int, bidPrice int64, scanned int) {
	const inf = int64(1) << 62
	best, second := inf, inf
	bestK := -1
	for k, tr := range a.cands[i] {
		v := a.costs[i][k] + a.price[tr]
		if v < best {
			second = best
			best, bestK = v, k
		} else if v < second {
			second = v
		}
	}
	if v := a.newCost + a.newPrice[i]; v < best {
		second = best
		best, bestK = v, -1
	} else if v < second {
		second = v
	}
	if second == inf {
		second = best // single-option plot: raise by ε alone
	}
	var cost int64
	if bestK < 0 {
		cost = a.newCost
	} else {
		cost = a.costs[i][bestK]
	}
	return bestK, best - cost + (second - best) + eps, len(a.cands[i]) + 1
}

// finish sums the frame's final assignment into out; the scaled total
// divides back exactly (every scaled cost is an original cost times scaleF).
func (a *auction) finish(out *Output) {
	var scaled int64
	for i, asg := range a.assigned {
		switch {
		case asg == newSlot:
			scaled += a.newCost
			out.NewTracks++
		case asg >= 0:
			for k, tr := range a.cands[i] {
				if tr == asg {
					scaled += a.costs[i][k]
					break
				}
			}
			out.Assigned++
		default:
			panic(fmt.Sprintf("plottrack: plot %d finished unassigned", i))
		}
	}
	out.FrameCost = append(out.FrameCost, scaled/a.scaleF)
}

// Sequential is the reference program: the Gauss-Seidel auction — greedy
// assignment with repair, one bidding plot at a time, frame after frame,
// entirely on the calling thread.
func Sequential(t *machine.Thread, s *Scenario) *Output {
	return SequentialWithCosts(t, s, DefaultParams(), DefaultCosts)
}

// SequentialWithCosts is Sequential with explicit auction controls and cost
// calibration.
func SequentialWithCosts(t *machine.Thread, s *Scenario, p Params, c Costs) *Output {
	p.validate()
	lay := NewLayout(t, s, c)
	out := &Output{}
	eps := int64(p.Epsilon)

	for _, frame := range s.Frames {
		a := newAuction(s, p.Gate, frame)
		plots, pairs, gated := 0, 0, 0
		for i := range frame {
			dp, dg := a.gatePlot(i, p.Gate)
			plots, pairs, gated = plots+1, pairs+dp, gated+dg
			if (i+1)%lay.Costs.BidBatch == 0 {
				lay.chargeGate(t, plots, pairs, gated)
				plots, pairs, gated = 0, 0, 0
			}
		}
		lay.chargeGate(t, plots, pairs, gated)

		queue := make([]int32, 0, len(frame))
		for i := range frame {
			queue = append(queue, int32(i))
		}
		bids, cands := 0, 0
		for head := 0; head < len(queue); head++ {
			if p.Rounds > 0 && head >= p.Rounds*len(frame) {
				overranGuard(p.Rounds)
			}
			i := int(queue[head])
			choice, bidPrice, scanned := a.bid(i, eps)
			bids, cands = bids+1, cands+scanned
			if choice < 0 {
				a.newPrice[i] = bidPrice
				a.assigned[i] = newSlot
			} else {
				tr := a.cands[i][choice]
				if prev := a.owner[tr]; prev >= 0 {
					a.assigned[prev] = unassigned
					queue = append(queue, prev)
				}
				a.owner[tr] = int32(i)
				a.assigned[i] = tr
				a.price[tr] = bidPrice
			}
			if bids >= lay.Costs.BidBatch {
				t.Compute(int64(bids) * lay.Costs.SerialOpsPerPlot)
				lay.chargeBids(t, cands)
				lay.chargeCommits(t, bids)
				out.Bids += int64(bids)
				bids, cands = 0, 0
			}
		}
		t.Compute(int64(bids) * lay.Costs.SerialOpsPerPlot)
		lay.chargeBids(t, cands)
		lay.chargeCommits(t, bids)
		out.Bids += int64(bids)
		a.finish(out)
	}
	return out
}

// Coarse is the manual parallelization in the style of Programs 2 and 4: the
// Jacobi auction. A persistent crew of worker threads — created once per
// run, like the paper's coarse-grained programs — partitions the unassigned
// plots each round, stages its bids in oversized private buffers (the
// storage drawback: every worker is sized for a worst-case frame), then
// commits them into the shared price and ownership arrays under per-track
// merge locks. Barriers separate the rounds, so the crew bids against
// stable prices; ties resolve to the lower plot id, which makes the run
// deterministic.
func Coarse(t *machine.Thread, s *Scenario, workers int) *Output {
	return CoarseWithCosts(t, s, workers, DefaultParams(), DefaultCosts)
}

// stagedBid is one private-buffer entry: plot i bids bid on candidate k.
type stagedBid struct {
	i   int32
	k   int32
	bid int64
}

// CoarseWithCosts is Coarse with explicit auction controls and calibration.
func CoarseWithCosts(t *machine.Thread, s *Scenario, workers int, p Params, c Costs) *Output {
	p.validate()
	if workers < 1 {
		panic("plottrack: Coarse needs ≥ 1 worker")
	}
	lay := NewLayout(t, s, c)
	out := &Output{}

	priv := make([]*mem.Region, workers)
	for w := range priv {
		priv[w] = t.Alloc(fmt.Sprintf("%s bids[%d]", s.Name, w), uint64(s.framePlots())*24)
		out.BidBufferBytes += priv[w].Size
	}
	locks := make([]*machine.Lock, len(s.Tracks))
	for j := range locks {
		locks[j] = t.NewLock(fmt.Sprintf("%s track[%d]", s.Name, j))
	}

	// Round hand-off state: the parent publishes the frame's auction and the
	// work list, both sides meet at the barrier, workers bid and commit, and
	// everyone meets again.
	var (
		a      *auction
		cur    []int32
		gating bool
		done   bool
	)
	eps := int64(p.Epsilon)
	bar := t.NewBarrier(s.Name+" round", workers+1)
	staged := make([][]stagedBid, workers)
	ws := make([]*machine.Thread, workers)
	for w := 0; w < workers; w++ {
		w := w
		ws[w] = t.Go(fmt.Sprintf("%s worker[%d]", s.Name, w), func(wt *machine.Thread) {
			for {
				bar.Arrive(wt)
				if done {
					return
				}
				lo, hi := threads.ChunkBounds(len(cur), workers, w)
				if lo < hi {
					if gating {
						lay.gateChunk(wt, a, p.Gate, cur[lo:hi])
					} else {
						out.Bids += lay.coarseChunk(wt, a, eps, cur[lo:hi], priv[w], &staged[w], locks)
					}
				}
				bar.Arrive(wt)
			}
		})
	}
	round := func() {
		bar.Arrive(t) // release the crew on this work list
		bar.Arrive(t) // wait for the commits to complete
	}

	for _, frame := range s.Frames {
		a = newAuction(s, p.Gate, frame)
		cur = cur[:0]
		for i := range frame {
			cur = append(cur, int32(i))
		}
		gating = true
		round()
		gating = false
		for nRounds := 0; len(cur) > 0; nRounds++ {
			if p.Rounds > 0 && nRounds >= p.Rounds {
				overranGuard(p.Rounds)
			}
			// Serial driver: work-list bookkeeping on the parent thread.
			t.Compute(int64(len(cur))*c.SerialOpsPerPlot + 40)
			round()
			// Rebuild the work list: plots displaced during the commits and
			// plots whose bids lost their race, in plot order (deterministic).
			cur = cur[:0]
			for i, asg := range a.assigned {
				if asg == unassigned {
					cur = append(cur, int32(i))
				}
			}
		}
		a.finish(out)
	}
	done = true
	bar.Arrive(t)
	t.JoinAll(ws)
	return out
}

// gateChunk builds the candidate lists for one chunk of plots, charging the
// streamed gating scan.
func (lay *Layout) gateChunk(wt *machine.Thread, a *auction, gate int, chunk []int32) {
	pairs, gated := 0, 0
	for _, i := range chunk {
		dp, dg := a.gatePlot(int(i), gate)
		pairs, gated = pairs+dp, gated+dg
	}
	lay.chargeGate(wt, len(chunk), pairs, gated)
}

// coarseChunk runs one worker's bid/commit round: bids for its chunk of
// unassigned plots staged into the private buffer, then committed under the
// per-track locks. A commit applies if it beats the current price (ties to
// the lower plot id); a losing plot simply stays unassigned for the next
// round.
func (lay *Layout) coarseChunk(wt *machine.Thread, a *auction, eps int64, chunk []int32,
	buf *mem.Region, stage *[]stagedBid, locks []*machine.Lock) int64 {

	bids := (*stage)[:0]
	cands := 0
	for _, i := range chunk {
		choice, bidPrice, scanned := a.bid(int(i), eps)
		cands += scanned
		bids = append(bids, stagedBid{i: i, k: int32(choice), bid: bidPrice})
	}
	*stage = bids
	lay.chargeBids(wt, cands)
	lay.chargeStage(wt, buf, len(bids))

	for _, b := range bids {
		i := int(b.i)
		if b.k < 0 {
			a.newPrice[i] = b.bid
			a.assigned[i] = newSlot
			continue
		}
		tr := a.cands[i][b.k]
		l := locks[tr]
		l.Lock(wt)
		prev := a.owner[tr]
		if b.bid > a.price[tr] || (b.bid == a.price[tr] && prev >= 0 && b.i < prev) {
			if prev >= 0 {
				a.assigned[prev] = unassigned
			}
			a.owner[tr] = b.i
			a.assigned[i] = tr
			a.price[tr] = b.bid
		}
		l.Unlock(wt)
	}
	lay.chargeCommits(wt, len(bids))
	return int64(len(bids))
}

// Fine is the Tera style: the asynchronous auction. Each round spawns a
// crowd of short-lived threads; each claims a few unassigned plots with an
// atomic fetch-and-add, computes the bid against the live prices, and
// commits it immediately through the track's full/empty ownership cell
// (striped over the track database). Displaced and out-bid plots re-enter
// through another fetch-and-add on the work-list tail. No private buffers,
// nondeterministic bid order — the prices only rise, so the auction still
// converges to the same exact optimum.
func Fine(t *machine.Thread, s *Scenario, threadsN int) *Output {
	return FineWithCosts(t, s, threadsN, DefaultParams(), FineDefaultCosts)
}

// FineWithCosts is Fine with explicit auction controls and calibration.
func FineWithCosts(t *machine.Thread, s *Scenario, threadsN int, p Params, c Costs) *Output {
	p.validate()
	if threadsN < 1 {
		panic("plottrack: Fine needs ≥ 1 thread")
	}
	lay := NewLayout(t, s, c)
	out := &Output{}

	// Full/empty ownership guard words striped over the track database,
	// created full: a committer empties the word (readFE), applies its bid,
	// and refills it (writeEF).
	stripes := make([]*machine.SyncVar, fineStripes)
	for i := range stripes {
		stripes[i] = t.NewSyncVar(fmt.Sprintf("%s fe[%d]", s.Name, i))
		stripes[i].Write(t, 0)
	}
	eps := int64(p.Epsilon)

	for _, frame := range s.Frames {
		a := newAuction(s, p.Gate, frame)
		all := make([]int32, len(frame))
		for i := range all {
			all[i] = int32(i)
		}
		// Gating: the same thread crowd, claiming plot batches by
		// fetch-and-add.
		lay.fineRound(t, threadsN, all, func(ct *machine.Thread, plots []int32) {
			lay.gateChunk(ct, a, p.Gate, plots)
		})

		cur := all
		for nRounds := 0; len(cur) > 0; nRounds++ {
			if p.Rounds > 0 && nRounds >= p.Rounds {
				overranGuard(p.Rounds)
			}
			t.Compute(int64(len(cur))*c.SerialOpsPerPlot + 40)
			var next []int32
			tail := t.NewCounter(s.Name+" tail", 0)
			lay.fineRound(t, threadsN, cur, func(ct *machine.Thread, plots []int32) {
				out.Bids += lay.fineSpan(ct, a, eps, plots, stripes, tail, &next)
			})
			cur = next
		}
		a.finish(out)
	}
	return out
}

// fineRound processes one work list with a crowd of claim threads: each
// repeatedly claims fineClaim plots by fetch-and-add and hands them to body.
func (lay *Layout) fineRound(t *machine.Thread, threadsN int, cur []int32,
	body func(ct *machine.Thread, plots []int32)) {

	nth := (len(cur) + fineClaim - 1) / fineClaim
	if nth > threadsN {
		nth = threadsN
	}
	if nth <= 1 {
		body(t, cur)
		return
	}
	claim := t.NewCounter(lay.Scenario.Name+" claim", 0)
	ws := make([]*machine.Thread, nth)
	for i := 0; i < nth; i++ {
		ws[i] = t.Go(fmt.Sprintf("%s bid[%d]", lay.Scenario.Name, i), func(ct *machine.Thread) {
			for {
				k := int(claim.Add(ct, fineClaim))
				if k >= len(cur) {
					return
				}
				hi := k + fineClaim
				if hi > len(cur) {
					hi = len(cur)
				}
				body(ct, cur[k:hi])
			}
		})
	}
	t.JoinAll(ws)
}

// fineSpan bids for one claimed batch of plots, committing each bid through
// its track's full/empty guard word. Losing bidders and displaced plots are
// appended to the next work list under a slot reserved by fetch-and-add.
func (lay *Layout) fineSpan(ct *machine.Thread, a *auction, eps int64, plots []int32,
	stripes []*machine.SyncVar, tail *machine.Counter, next *[]int32) (bids int64) {

	cands, commits := 0, 0
	requeue := func(i int32) {
		tail.Add(ct, 1) // reserve a work-list slot: int_fetch_add on the tail
		*next = append(*next, i)
	}
	for _, pi := range plots {
		i := int(pi)
		choice, bidPrice, scanned := a.bid(i, eps)
		bids++
		cands += scanned
		if choice < 0 {
			a.newPrice[i] = bidPrice
			a.assigned[i] = newSlot
			commits++
			continue
		}
		tr := a.cands[i][choice]
		sv := stripes[int(tr)%len(stripes)]
		sv.ReadFE(ct)
		if bidPrice > a.price[tr] {
			if prev := a.owner[tr]; prev >= 0 {
				a.assigned[prev] = unassigned
				requeue(prev)
			}
			a.owner[tr] = pi
			a.assigned[i] = tr
			a.price[tr] = bidPrice
			commits++
		} else {
			// Out-bid between reading the prices and committing: re-enter
			// with the fresher prices.
			requeue(pi)
		}
		sv.WriteEF(ct, 0)
	}
	lay.chargeBids(ct, cands)
	lay.chargeCommits(ct, commits)
	return bids
}

// CoarseBidBytesFullScale returns the private bid-staging storage the coarse
// crew needs for the given worker count at the full C3I surveillance
// picture (on the order of a million plots per correlation frame across all
// sensors, 24-byte staged bids, every worker sized for the worst-case
// frame). Like Terrain Masking's per-worker temp arrays, this is what makes
// the coarse style impractical at the hundreds of streams the MTA needs.
func CoarseBidBytesFullScale(workers int) uint64 {
	const fullFramePlots = 1 << 20
	return uint64(workers) * fullFramePlots * 24
}
