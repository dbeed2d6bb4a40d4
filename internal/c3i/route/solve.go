package route

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/threads"
)

// Costs is the charging calibration for the Route Optimization kernel: how
// many abstract operations and memory references the benchmark performs per
// unit of shortest-path work. The kernel's character is irregular: the
// distance array is read and written at wavefront-scattered addresses
// (dependent loads — cheap under a cache that holds the working set, exposed
// memory latency on the cache-less MTA), while the risk field streams.
type Costs struct {
	OpsPerSettle       int64 // bookkeeping per frontier node claimed (pop/claim, stale test)
	OpsPerRelax        int64 // per examined edge: neighbor index, weight add, compare
	StreamRefsPerRelax int   // streamed reads of the risk/weight field
	DepRefsPerRelax    int   // dependent loads: scattered distance-array reads
	OpsPerPush         int64 // per applied improvement: distance store, frontier append
	SerialOpsPerNode   int64 // serial driver work per frontier node (bucket bookkeeping)
	SettleBatch        int   // settled nodes per charging batch (event-count control)
}

// DefaultCosts is the calibrated cost set (see Costs).
var DefaultCosts = Costs{
	OpsPerSettle:       34,
	OpsPerRelax:        46,
	StreamRefsPerRelax: 2,
	DepRefsPerRelax:    3,
	OpsPerPush:         14,
	SerialOpsPerNode:   3,
	SettleBatch:        128,
}

// FineDefaultCosts is the calibration for the restructured fine-grained
// kernel: within one claimed batch the distance loads of different edges are
// independent, so the Tera compiler's lookahead pipelines them — only the
// final compare-and-update chain stays dependent. Total references per relax
// are unchanged; only the dependent share drops (the same restructuring as
// Terrain Masking's Feo kernel).
var FineDefaultCosts = Costs{
	OpsPerSettle:       DefaultCosts.OpsPerSettle,
	OpsPerRelax:        DefaultCosts.OpsPerRelax,
	StreamRefsPerRelax: DefaultCosts.StreamRefsPerRelax + DefaultCosts.DepRefsPerRelax - 1,
	DepRefsPerRelax:    1,
	OpsPerPush:         DefaultCosts.OpsPerPush,
	SerialOpsPerNode:   DefaultCosts.SerialOpsPerNode,
	SettleBatch:        DefaultCosts.SettleBatch,
}

// DefaultDelta is the ∆-stepping bucket width used by the parallel variants:
// a few average edge weights, so buckets hold enough nodes to parallelize
// without admitting long re-relaxation chains.
const DefaultDelta = 32

// inf is the unreached distance (large, but far from int32 overflow when an
// edge weight is added).
const inf = int32(1) << 30

const (
	// fineClaim is how many frontier nodes one fetch-and-add claims in the
	// fine-grained variant.
	fineClaim = 8
	// fineStripes is the number of full/empty guard words striped over the
	// distance array in the fine-grained variant.
	fineStripes = 64
)

// Layout holds the simulated-memory placement of a scenario's arrays.
type Layout struct {
	Scenario *Scenario
	Costs    Costs
	Risk     *mem.Region // per-cell risk surcharge (input)
	Dist     *mem.Region // distance array (working/output)
	Frontier *mem.Region // shared frontier storage (heap or bucket lists)
}

// NewLayout allocates the scenario's arrays in the machine's address space.
func NewLayout(t *machine.Thread, s *Scenario, c Costs) *Layout {
	if c == (Costs{}) {
		c = DefaultCosts
	}
	cells := uint64(s.Cells())
	return &Layout{
		Scenario: s,
		Costs:    c,
		Risk:     t.Alloc(s.Name+" risk", cells*4),
		Dist:     t.Alloc(s.Name+" dist", cells*4),
		Frontier: t.Alloc(s.Name+" frontier", cells*8),
	}
}

// scatterStride spaces scattered references one cache line apart: the
// wavefront touches cells all over the grid, so consecutive references land
// on different lines.
const scatterStride = 64

// chargeScan charges one batch of frontier scanning: settled node claims and
// edge relaxations (streamed risk reads plus dependent distance loads).
func (lay *Layout) chargeScan(t *machine.Thread, settled, relaxed int) {
	if settled == 0 && relaxed == 0 {
		return
	}
	c := lay.Costs
	t.Compute(int64(settled)*c.OpsPerSettle + int64(relaxed)*c.OpsPerRelax)
	t.BurstWrapped(lay.Risk, scatterStride, 4, relaxed*c.StreamRefsPerRelax, false, false)
	t.BurstWrapped(lay.Dist, scatterStride, 4, relaxed*c.DepRefsPerRelax, false, true)
}

// chargeStage charges staging n candidate relaxations into a private buffer
// (the coarse variant's Program 2-style oversized per-chunk arrays).
func (lay *Layout) chargeStage(t *machine.Thread, buf *mem.Region, n int) {
	if n <= 0 {
		return
	}
	t.Compute(int64(n) * 4)
	t.BurstWrapped(buf, 8, 8, n, true, false)
}

// chargeMergeCheck charges re-reading the authoritative distances for n
// candidates during a locked merge.
func (lay *Layout) chargeMergeCheck(t *machine.Thread, n int) {
	if n <= 0 {
		return
	}
	t.Compute(int64(n) * 6)
	t.BurstWrapped(lay.Dist, scatterStride, 4, n, false, true)
}

// chargeApply charges n applied improvements: scattered distance stores plus
// appends to the shared frontier.
func (lay *Layout) chargeApply(t *machine.Thread, n int) {
	if n <= 0 {
		return
	}
	t.Compute(int64(n) * lay.Costs.OpsPerPush)
	t.BurstWrapped(lay.Dist, scatterStride, 4, n, true, false)
	t.BurstWrapped(lay.Frontier, 8, 8, n, true, false)
}

// chargeInit charges the per-request distance-array reset.
func (lay *Layout) chargeInit(t *machine.Thread) {
	cells := lay.Scenario.Cells()
	t.Compute(int64(cells) * 2)
	t.BurstWrapped(lay.Dist, 4, 4, cells, true, false)
}

// Output is a solver's result: the per-request cheapest path costs (in query
// order — identical across all variants), the edge relaxations performed
// (parallel variants do some extra work), and the frontier storage the
// variant had to allocate — the memory overhead the coarse style pays for
// its private buffers.
type Output struct {
	PathCost      []int64
	Relaxed       int64
	FrontierBytes uint64
}

// heap64 is a binary min-heap of packed (distance<<32 | node) entries with
// lazy deletion — the sequential variant's priority queue.
type heap64 []uint64

func (h *heap64) push(x uint64) {
	*h = append(*h, x)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *heap64) pop() uint64 {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	*h = a[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && a[l] < a[m] {
			m = l
		}
		if r < n && a[r] < a[m] {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// Sequential is the reference program: Dijkstra's algorithm with a binary
// heap, one request after another, entirely on the calling thread.
func Sequential(t *machine.Thread, s *Scenario, c Costs) *Output {
	lay := NewLayout(t, s, c)
	out := &Output{FrontierBytes: lay.Frontier.Size}
	dist := make([]int32, s.Cells())
	for _, q := range s.Queries {
		out.PathCost = append(out.PathCost, lay.dijkstra(t, q, dist, out))
	}
	return out
}

func (lay *Layout) dijkstra(t *machine.Thread, q Query, dist []int32, out *Output) int64 {
	s, c := lay.Scenario, lay.Costs
	for i := range dist {
		dist[i] = inf
	}
	lay.chargeInit(t)
	start, goal := s.Index(q.SX, q.SY), s.Index(q.GX, q.GY)
	dist[start] = 0
	h := heap64{uint64(start)}
	settled, relaxed, pushed := 0, 0, 0
	flush := func() {
		lay.chargeScan(t, settled, relaxed)
		lay.chargeApply(t, pushed)
		out.Relaxed += int64(relaxed)
		settled, relaxed, pushed = 0, 0, 0
	}
	for len(h) > 0 {
		it := h.pop()
		d, v := int32(it>>32), int32(it&0xffffffff)
		if d != dist[v] {
			continue // stale heap entry
		}
		settled++
		if int(v) == goal {
			break
		}
		x, y := int(v)%s.W, int(v)/s.W
		relax := func(nb int) {
			relaxed++
			nd := d + s.EdgeWeight(nb)
			if nd < dist[nb] {
				dist[nb] = nd
				pushed++
				h.push(uint64(nd)<<32 | uint64(nb))
			}
		}
		if x > 0 {
			relax(int(v) - 1)
		}
		if x+1 < s.W {
			relax(int(v) + 1)
		}
		if y > 0 {
			relax(int(v) - s.W)
		}
		if y+1 < s.H {
			relax(int(v) + s.W)
		}
		if settled >= c.SettleBatch {
			flush()
		}
	}
	flush()
	return int64(dist[goal])
}

// queryState is the bucketed solvers' shared working state for one request.
type queryState struct {
	dist    []int32
	buckets [][]int32 // frontier node lists indexed by dist/delta; may hold stale entries
}

func (qs *queryState) reset() {
	for i := range qs.dist {
		qs.dist[i] = inf
	}
	for i := range qs.buckets {
		qs.buckets[i] = nil
	}
	qs.buckets = qs.buckets[:0]
}

// push files node v under its (new) distance nd. Stale entries left in old
// buckets are skipped when their bucket is processed.
func (qs *queryState) push(v, nd int32, delta int) {
	nb := int(nd) / delta
	for nb >= len(qs.buckets) {
		qs.buckets = append(qs.buckets, nil)
	}
	qs.buckets[nb] = append(qs.buckets[nb], v)
}

// cand is one candidate relaxation: node v may improve to distance nd.
type cand struct{ v, nd int32 }

// relaxInto scans the given frontier nodes, relaxing the edges of those still
// current for bucket b, and appends candidate improvements to cands. It does
// not touch shared state beyond racy distance pre-checks (the authoritative
// check happens at apply time).
func (lay *Layout) relaxInto(qs *queryState, b, delta int, nodes []int32, cands []cand) (settled, relaxed int, _ []cand) {
	s := lay.Scenario
	for _, v := range nodes {
		d := qs.dist[v]
		if int(d)/delta != b {
			continue // superseded by a better distance
		}
		settled++
		x, y := int(v)%s.W, int(v)/s.W
		relax := func(nb int) {
			relaxed++
			nd := d + s.EdgeWeight(nb)
			if nd < qs.dist[nb] {
				cands = append(cands, cand{int32(nb), nd})
			}
		}
		if x > 0 {
			relax(int(v) - 1)
		}
		if x+1 < s.W {
			relax(int(v) + 1)
		}
		if y > 0 {
			relax(int(v) - s.W)
		}
		if y+1 < s.H {
			relax(int(v) + s.W)
		}
	}
	return settled, relaxed, cands
}

// Coarse is the manual parallelization in the style of Programs 2 and 4:
// ∆-stepping where each bucket's frontier is split statically across a
// persistent crew of worker threads, created once per run (on conventional
// platforms thread creation costs tens to hundreds of thousands of cycles,
// so phase boundaries are barriers, not respawns). Each worker stages its
// candidate relaxations in a private oversized buffer (the storage drawback:
// every worker must be sized for the worst-case wavefront), then merges them
// into the shared distance array and bucket lists under per-block locks over
// the grid (blocks×blocks, as in Terrain Masking's ten-by-ten blocking).
func Coarse(t *machine.Thread, s *Scenario, workers, blocks, delta int, c Costs) *Output {
	if workers < 1 || blocks < 1 || delta < 1 {
		panic("route: Coarse needs ≥1 worker, block and delta")
	}
	lay := NewLayout(t, s, c)
	out := &Output{FrontierBytes: lay.Frontier.Size}

	priv := make([]*mem.Region, workers)
	for w := range priv {
		priv[w] = t.Alloc(fmt.Sprintf("%s cand[%d]", s.Name, w), uint64(s.Cells())*8)
		out.FrontierBytes += priv[w].Size
	}

	locks := make([]*machine.Lock, blocks*blocks)
	for i := range locks {
		locks[i] = t.NewLock(fmt.Sprintf("%s block[%d]", s.Name, i))
	}
	blockW := (s.W + blocks - 1) / blocks
	blockH := (s.H + blocks - 1) / blocks
	lockOf := func(v int32) int {
		x, y := int(v)%s.W, int(v)/s.W
		return (y/blockH)*blocks + x/blockW
	}

	qs := &queryState{dist: make([]int32, s.Cells())}

	// Round hand-off state: the parent publishes the wavefront, and each
	// crew round relaxes and merges it.
	var (
		cur  []int32
		curB int
	)
	crew := threads.NewCrew(t, s.Name+" worker", workers, func(wt *machine.Thread, w, lo, hi int) {
		out.Relaxed += lay.coarseChunk(wt, qs, curB, delta, cur[lo:hi], priv[w], locks, lockOf)
	})

	for _, q := range s.Queries {
		qs.reset()
		lay.chargeInit(t)
		start, goal := s.Index(q.SX, q.SY), s.Index(q.GX, q.GY)
		qs.dist[start] = 0
		qs.push(int32(start), 0, delta)
		for b := 0; b < len(qs.buckets); b++ {
			for len(qs.buckets[b]) > 0 {
				cur = qs.buckets[b]
				qs.buckets[b] = nil
				curB = b
				// Serial driver: bucket bookkeeping on the parent thread.
				t.Compute(int64(len(cur))*c.SerialOpsPerNode + 40)
				crew.Round(t, len(cur))
			}
			if qs.dist[goal] != inf && int(qs.dist[goal])/delta <= b {
				break // the goal's bucket has been fully processed
			}
		}
		out.PathCost = append(out.PathCost, int64(qs.dist[goal]))
	}
	crew.Stop(t)
	return out
}

// coarseChunk relaxes one chunk of the current bucket into its private
// buffer, then merges under per-block locks.
func (lay *Layout) coarseChunk(ct *machine.Thread, qs *queryState, b, delta int, nodes []int32,
	buf *mem.Region, locks []*machine.Lock, lockOf func(int32) int) int64 {

	settled, relaxed, cands := lay.relaxInto(qs, b, delta, nodes, nil)
	lay.chargeScan(ct, settled, relaxed)
	lay.chargeStage(ct, buf, len(cands))
	if len(cands) == 0 {
		return int64(relaxed)
	}
	sort.Slice(cands, func(i, j int) bool {
		bi, bj := lockOf(cands[i].v), lockOf(cands[j].v)
		if bi != bj {
			return bi < bj
		}
		if cands[i].v != cands[j].v {
			return cands[i].v < cands[j].v
		}
		return cands[i].nd < cands[j].nd
	})
	for i := 0; i < len(cands); {
		blk := lockOf(cands[i].v)
		j := i
		for j < len(cands) && lockOf(cands[j].v) == blk {
			j++
		}
		l := locks[blk]
		l.Lock(ct)
		applied := 0
		for k := i; k < j; k++ {
			cd := cands[k]
			if cd.nd < qs.dist[cd.v] {
				qs.dist[cd.v] = cd.nd
				qs.push(cd.v, cd.nd, delta)
				applied++
			}
		}
		lay.chargeMergeCheck(ct, j-i)
		lay.chargeApply(ct, applied)
		l.Unlock(ct)
		i = j
	}
	return int64(relaxed)
}

// Fine is the Tera style: the shared bucket structure is the synchronization
// point. Every wavefront spawns a crowd of short-lived threads; each claims a
// few frontier nodes with an atomic fetch-and-add, reserves push slots in the
// shared frontier with another, and guards distance updates with full/empty
// synchronization words striped over the distance array. No private buffers
// (no memory overhead), nondeterministic work order (the costs still converge
// to the unique shortest distances) — viable only where thread creation and
// per-word synchronization are nearly free.
func Fine(t *machine.Thread, s *Scenario, threadsN, delta int, c Costs) *Output {
	if threadsN < 1 || delta < 1 {
		panic("route: Fine needs ≥1 thread and delta")
	}
	lay := NewLayout(t, s, c)
	out := &Output{FrontierBytes: lay.Frontier.Size}

	// Full/empty guard words striped over the distance array, created full:
	// an updater empties a word (readFE), applies its improvements, and
	// refills it (writeEF).
	stripes := make([]*machine.SyncVar, fineStripes)
	for i := range stripes {
		stripes[i] = t.NewSyncVar(fmt.Sprintf("%s fe[%d]", s.Name, i))
		stripes[i].Write(t, 0)
	}
	tail := t.NewCounter(s.Name+" frontier tail", 0)

	qs := &queryState{dist: make([]int32, s.Cells())}
	for _, q := range s.Queries {
		qs.reset()
		lay.chargeInit(t)
		start, goal := s.Index(q.SX, q.SY), s.Index(q.GX, q.GY)
		qs.dist[start] = 0
		qs.push(int32(start), 0, delta)
		for b := 0; b < len(qs.buckets); b++ {
			for len(qs.buckets[b]) > 0 {
				cur := qs.buckets[b]
				qs.buckets[b] = nil
				t.Compute(int64(len(cur))*c.SerialOpsPerNode + 40)
				threads.Claim(t, s.Name+" relax", len(cur), fineClaim, threadsN, func(ct *machine.Thread, lo, hi int) {
					out.Relaxed += lay.fineSpan(ct, qs, b, delta, cur, lo, hi, stripes, tail)
				})
			}
			if qs.dist[goal] != inf && int(qs.dist[goal])/delta <= b {
				break
			}
		}
		out.PathCost = append(out.PathCost, int64(qs.dist[goal]))
	}
	return out
}

// fineSpan processes one claimed slice of the current bucket: relax, reserve
// frontier slots, and apply improvements stripe by stripe, each batch under
// its distance words' full/empty guard.
func (lay *Layout) fineSpan(ct *machine.Thread, qs *queryState, b, delta int, cur []int32,
	lo, hi int, stripes []*machine.SyncVar, tail *machine.Counter) int64 {

	settled, relaxed, local := lay.relaxInto(qs, b, delta, cur[lo:hi], nil)
	lay.chargeScan(ct, settled, relaxed)
	if len(local) == 0 {
		return int64(relaxed)
	}
	tail.Add(ct, int64(len(local))) // reserve push slots: int_fetch_add on the frontier tail
	stripeOf := func(cd cand) int { return int(cd.v) % len(stripes) }
	sort.Slice(local, func(i, j int) bool {
		si, sj := stripeOf(local[i]), stripeOf(local[j])
		if si != sj {
			return si < sj
		}
		if local[i].v != local[j].v {
			return local[i].v < local[j].v
		}
		return local[i].nd < local[j].nd
	})
	applied := 0
	for i := 0; i < len(local); {
		st := stripeOf(local[i])
		j := i
		for j < len(local) && stripeOf(local[j]) == st {
			j++
		}
		sv := stripes[st]
		sv.ReadFE(ct)
		for _, cd := range local[i:j] {
			if cd.nd < qs.dist[cd.v] {
				qs.dist[cd.v] = cd.nd
				qs.push(cd.v, cd.nd, delta)
				applied++
			}
		}
		sv.WriteEF(ct, 0)
		i = j
	}
	lay.chargeApply(ct, applied)
	return int64(relaxed)
}

// CoarseFrontierBytesFullScale returns the private candidate-buffer storage
// the coarse variant needs for the given worker count at the full C3I
// terrain resolution (2380² cells, 8-byte entries per worst-case wavefront
// slot). Like Terrain Masking's per-worker temp arrays, this is what makes
// the coarse style impractical at the hundreds of streams the MTA needs.
func CoarseFrontierBytesFullScale(workers int) uint64 {
	const fullSide = 2380
	return uint64(workers) * fullSide * fullSide * 8
}
