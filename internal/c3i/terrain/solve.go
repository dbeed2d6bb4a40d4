package terrain

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/threads"
)

// Costs is the charging calibration for the Terrain Masking kernel,
// calibrated so the five-scenario suite at scale 1 lands on the paper's
// sequential times (Table 8). The benchmark is memory-bound: most of its
// time is cache misses on the conventional machines and exposed memory
// latency on the MTA.
type Costs struct {
	OpsPerVisit        int64 // instructions per ray-visited cell
	StreamRefsPerVisit int   // streamed references (elevation, temp, altitude layers)
	DepRefsPerVisit    int   // dependent loads through the call chain and pointer indexing
	OpsPerMergeCell    int64 // instructions per cell in save/reset/minimize passes
	SerialOpsPerCell   int64 // per-threat serial driver work (setup, reduction) that no variant parallelizes
	RayBatch           int   // rays per charging batch (event-count control)
}

// DefaultCosts is the calibrated cost set (see Costs).
var DefaultCosts = Costs{
	OpsPerVisit:        95,
	StreamRefsPerVisit: 7,
	DepRefsPerVisit:    6,
	OpsPerMergeCell:    6,
	SerialOpsPerCell:   8,
	RayBatch:           64,
}

// FineDefaultCosts is the calibration for the restructured fine-grained
// kernel (the John Feo version): walking whole rays inside one thread keeps
// the wavefront state in registers, converting most of the sequential
// program's dependent pointer loads into pipelined traffic. Total references
// per visit are unchanged; only the dependent share drops.
var FineDefaultCosts = Costs{
	OpsPerVisit:        DefaultCosts.OpsPerVisit,
	StreamRefsPerVisit: DefaultCosts.StreamRefsPerVisit + DefaultCosts.DepRefsPerVisit - 2,
	DepRefsPerVisit:    2,
	OpsPerMergeCell:    DefaultCosts.OpsPerMergeCell,
	SerialOpsPerCell:   DefaultCosts.SerialOpsPerCell,
	RayBatch:           DefaultCosts.RayBatch,
}

// Opt bundles solver options.
type Opt struct {
	// Costs overrides the charging calibration (zero value → DefaultCosts).
	Costs Costs
	// ChargeOnly skips the Go-side computation and replays memoized visit
	// counts, charging the machine identically but producing no Masking
	// output. Used by timing sweeps after one full (verifying) run has
	// populated the scenario's caches.
	ChargeOnly bool
}

func (o Opt) costs() Costs {
	if o.Costs == (Costs{}) {
		return DefaultCosts
	}
	return o.Costs
}

// Layout holds the simulated-memory placement of a scenario's arrays.
type Layout struct {
	Scenario   *Scenario
	Costs      Costs
	ChargeOnly bool
	Elev       *mem.Region // terrain elevations (input)
	Mask       *mem.Region // overall masking array (output)
}

// NewLayout allocates the scenario's shared arrays.
func NewLayout(t *machine.Thread, s *Scenario, o Opt) *Layout {
	cells := uint64(s.Grid.W) * uint64(s.Grid.H)
	return &Layout{
		Scenario:   s,
		Costs:      o.costs(),
		ChargeOnly: o.ChargeOnly,
		Elev:       t.Alloc(s.Name+" elevation", cells*4),
		Mask:       t.Alloc(s.Name+" masking", cells*4),
	}
}

// AllocField allocates the simulated region for one private temp field.
func (lay *Layout) AllocField(t *machine.Thread, owner string) *mem.Region {
	side := uint64(2*DefaultRadiusOf(lay.Scenario) + 1)
	return t.Alloc(fmt.Sprintf("%s temp[%s]", lay.Scenario.Name, owner), side*side*4)
}

// DefaultRadiusOf returns the scenario's (uniform) threat radius.
func DefaultRadiusOf(s *Scenario) int {
	if len(s.Threats) == 0 {
		return DefaultRadius
	}
	return s.Threats[0].R
}

// bboxBytes returns the byte offset of a threat's box origin in a
// full-terrain array and the box size in cells.
func (lay *Layout) bboxBytes(site *ThreatSite) (off uint64, cells int) {
	f0 := (site.Y-site.R)*lay.Scenario.Grid.W + (site.X - site.R)
	side := 2*site.R + 1
	return uint64(f0) * 4, side * side
}

// clampedBurst builds a burst that stays inside its region even for the
// approximated stride patterns.
func clampedBurst(r *mem.Region, off uint64, stride uint64, n int, write, dep bool) mem.Burst {
	b := mem.Burst{Region: r, Offset: off, Stride: stride, Elem: 4, N: n, Write: write, Dep: dep}
	if n > 0 {
		if span := b.Span(); off+span > r.Size {
			if span >= r.Size {
				b.Offset = 0
				b.N = int((r.Size - b.ElemSize()) / maxU(stride, 1))
				if b.N < 1 {
					b.N = 1
				}
			} else {
				b.Offset = r.Size - span
			}
		}
	}
	return b
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// rayStride approximates the memory stride of ray walks: most rays advance
// by about one grid row or a few cells per step; a 64-byte average makes
// every cold reference a distinct cache line, matching the scattered access
// of the real code.
const rayStride = 64

// TraceSectorCharged traces rays [lo, hi) of site's fan into f, charging the
// machine for the work: OpsPerVisit instructions, streamed references split
// between the elevation input and the target array, and DepRefsPerVisit
// dependent loads per visited cell.
func (lay *Layout) TraceSectorCharged(t *machine.Thread, site *ThreatSite, f *Field,
	target *mem.Region, targetOff uint64, lo, hi int) int {

	c := lay.Costs
	elevOff, _ := lay.bboxBytes(site)
	rv := lay.Scenario.rayCache(site)
	total := 0
	for batchLo := lo; batchLo < hi; batchLo += c.RayBatch {
		batchHi := batchLo + c.RayBatch
		if batchHi > hi {
			batchHi = hi
		}
		visits := 0
		if lay.ChargeOnly {
			replay := true
			for r := batchLo; r < batchHi; r++ {
				if rv[r] < 0 {
					replay = false
					break
				}
			}
			if replay {
				for r := batchLo; r < batchHi; r++ {
					visits += rv[r]
				}
			} else {
				if f == nil { // cold cache: trace into a scratch field
					f = NewField(site)
				}
				for r := batchLo; r < batchHi; r++ {
					rv[r] = TraceRay(lay.Scenario.Grid, site, f, r)
					visits += rv[r]
				}
			}
		} else {
			for r := batchLo; r < batchHi; r++ {
				rv[r] = TraceRay(lay.Scenario.Grid, site, f, r)
				visits += rv[r]
			}
		}
		total += visits
		if visits == 0 {
			continue
		}
		t.Compute(int64(visits) * c.OpsPerVisit)
		reads := visits * c.StreamRefsPerVisit / 2
		writes := visits*c.StreamRefsPerVisit - reads
		t.Burst(clampedBurst(lay.Elev, elevOff, rayStride, reads, false, false))
		t.Burst(clampedBurst(target, targetOff, rayStride, writes, true, false))
		t.Burst(mem.Burst{Region: target, Offset: targetOff, Stride: 0, Elem: 4,
			N: visits * c.DepRefsPerVisit, Dep: true})
	}
	return total
}

// chargePass charges one full pass over a threat's box in a full-terrain or
// temp array: n sequential references per cell split into reads and writes.
func (lay *Layout) chargePass(t *machine.Thread, r *mem.Region, off uint64, cells, reads, writes int, ops int64) {
	t.Compute(int64(cells) * ops)
	for i := 0; i < reads; i++ {
		t.Burst(clampedBurst(r, off, 4, cells, false, false))
	}
	for i := 0; i < writes; i++ {
		t.Burst(clampedBurst(r, off, 4, cells, true, false))
	}
}

// Output is a solver's result.
type Output struct {
	Masking   *Masking
	TempBytes uint64 // private temp-array storage allocated (paper's drawback)
	Blocks    int    // lock blocks touched (coarse variant)
}

// Sequential is Program 3: for each threat in turn, save the masking region
// to temp, reset it, compute the threat's masking, and minimize the saved
// values back in — four passes over the region of influence plus the ray
// computation.
func Sequential(t *machine.Thread, s *Scenario, o Opt) *Output {
	lay := NewLayout(t, s, o)
	c := lay.Costs
	temp := lay.AllocField(t, "seq")
	out := lay.newOutput()
	out.TempBytes = temp.Size

	var f *Field
	for i := range s.Threats {
		site := &s.Threats[i]
		f = lay.nextField(site, f)
		off, cells := lay.bboxBytes(site)
		// Serial per-threat driver work (the paper: "sequences of execution
		// that do not parallelize well").
		t.Compute(int64(cells) * c.SerialOpsPerCell)
		// temp[x][y] = masking[x][y] (save)
		lay.chargePass(t, lay.Mask, off, cells, 1, 0, 0)
		lay.chargePass(t, temp, 0, cells, 0, 1, c.OpsPerMergeCell)
		// masking[x][y] = INFINITY
		lay.chargePass(t, lay.Mask, off, cells, 0, 1, 0)
		// masking[x][y] = max safe altitude due to threat (ray fan)
		lay.TraceSectorCharged(t, site, f, lay.Mask, off, 0, NumRays(site.R))
		// masking[x][y] = Min(masking[x][y], temp[x][y])
		lay.chargePass(t, lay.Mask, off, cells, 1, 1, c.OpsPerMergeCell)
		lay.chargePass(t, temp, 0, cells, 1, 0, 0)
		if !lay.ChargeOnly {
			for row := 0; row < f.H; row++ {
				out.Masking.MergeRow(f, row)
			}
		}
	}
	return out
}

// Coarse is Program 4: a dynamic multithreaded loop over threats. Each
// worker owns a private temp array; the shared masking array is updated
// block-by-block under a lock per block (blocks×blocks over the terrain —
// the paper ran ten-by-ten).
func Coarse(t *machine.Thread, s *Scenario, workers, blocks int, o Opt) *Output {
	if workers < 1 || blocks < 1 {
		panic("terrain: Coarse needs ≥1 worker and ≥1 block")
	}
	lay := NewLayout(t, s, o)
	return lay.crew(t, workers, blocks, func(wt *machine.Thread, site *ThreatSite, f *Field, temp *mem.Region) {
		_, cells := lay.bboxBytes(site)
		// temp[x][y] = INFINITY
		lay.chargePass(wt, temp, 0, cells, 0, 1, 0)
		// temp[x][y] = max safe altitude due to threat
		lay.TraceSectorCharged(wt, site, f, temp, 0, 0, NumRays(site.R))
	})
}

// crew runs Program 4's dynamic loop over the scenario's threats, the
// structure the coarse and hybrid variants share. Each of workers threads
// allocates a private temp array, then repeatedly claims the next
// unprocessed threat from a shared counter, runs the threat's serial driver
// work, fills temp through fill, and minimizes temp into the shared masking
// array one block at a time under that block's lock (blocks×blocks locks
// over the terrain). Every worker is spawned and allocates its temp array
// even when workers outnumber threats; Table 10's cells with more workers
// than threat sites include that cost.
func (lay *Layout) crew(t *machine.Thread, workers, blocks int,
	fill func(wt *machine.Thread, site *ThreatSite, f *Field, temp *mem.Region)) *Output {

	s, c := lay.Scenario, lay.Costs
	out := lay.newOutput()
	locks := make([]*machine.Lock, blocks*blocks)
	for i := range locks {
		locks[i] = t.NewLock(fmt.Sprintf("%s block[%d]", s.Name, i))
	}
	blockSize := (s.Grid.W + blocks - 1) / blocks

	next := t.NewCounter(s.Name+" next threat", 0)
	ts := make([]*machine.Thread, workers)
	for w := range ts {
		ts[w] = t.Go(fmt.Sprintf("%s worker[%d]", s.Name, w), func(wt *machine.Thread) {
			temp := lay.AllocField(wt, fmt.Sprintf("w%d", w))
			out.TempBytes += temp.Size
			var f *Field
			for {
				item := next.Next(wt)
				if item >= int64(len(s.Threats)) {
					return
				}
				site := &s.Threats[item]
				f = lay.nextField(site, f)
				_, cells := lay.bboxBytes(site)
				// The per-threat driver runs serially on its worker, but
				// different threats' drivers overlap across workers.
				wt.Compute(int64(cells) * c.SerialOpsPerCell)
				fill(wt, site, f, temp)
				// Per overlapping block: lock; minimize; unlock. Geometry
				// comes from the site (f is nil in ChargeOnly replays).
				fx0, fy0 := site.X-site.R, site.Y-site.R
				side := 2*site.R + 1
				for by := fy0 / blockSize; by <= (site.Y+site.R)/blockSize; by++ {
					for bx := fx0 / blockSize; bx <= (site.X+site.R)/blockSize; bx++ {
						l := locks[by*blocks+bx]
						l.Lock(wt)
						out.Blocks++
						x0, x1 := max(bx*blockSize, fx0), min((bx+1)*blockSize, fx0+side)
						y0, y1 := max(by*blockSize, fy0), min((by+1)*blockSize, fy0+side)
						if overlap := (x1 - x0) * (y1 - y0); overlap > 0 {
							boff := uint64(y0*s.Grid.W+x0) * 4
							lay.chargePass(wt, lay.Mask, boff, overlap, 1, 1, c.OpsPerMergeCell)
							lay.chargePass(wt, temp, 0, overlap, 1, 0, 0)
							if !lay.ChargeOnly {
								for y := y0; y < y1; y++ {
									out.Masking.MergeRowRange(f, y-f.Y0, x0, x1)
								}
							}
						}
						l.Unlock(wt)
					}
				}
			}
		})
	}
	t.JoinAll(ts)
	return out
}

// newOutput returns an empty Output, with a masking array unless the run
// only charges the machine.
func (lay *Layout) newOutput() *Output {
	out := &Output{}
	if !lay.ChargeOnly {
		out.Masking = NewMasking(lay.Scenario.Grid)
	}
	return out
}

// nextField returns the field a threat's rays are traced into: nil in
// ChargeOnly replays, otherwise f moved to the threat's box and reset (a new
// field for the first threat).
func (lay *Layout) nextField(site *ThreatSite, f *Field) *Field {
	switch {
	case lay.ChargeOnly:
		return nil
	case f == nil:
		return NewField(site)
	}
	f.X0, f.Y0 = site.X-site.R, site.Y-site.R
	f.Reset()
	return f
}

// fillParallel fills temp with a threat's masking using fine-grained
// threads: a parallel reset over mergeChunks row chunks, then the ray fan
// split into sectors parallel sectors.
func (lay *Layout) fillParallel(t *machine.Thread, site *ThreatSite, f *Field, temp *mem.Region, sectors, mergeChunks int) {
	name := lay.Scenario.Name
	side := 2*site.R + 1
	threads.ParChunks(t, name+" reset", side, mergeChunks, func(ct *machine.Thread, ch, lo, hi int) {
		if hi > lo {
			lay.chargePass(ct, temp, uint64(lo*side)*4, (hi-lo)*side, 0, 1, 0)
		}
	})
	threads.ParChunks(t, name+" sectors", NumRays(site.R), sectors, func(ct *machine.Thread, ch, lo, hi int) {
		lay.TraceSectorCharged(ct, site, f, temp, 0, lo, hi)
	})
}

// Fine is the Tera version: the outer loop over threats stays sequential,
// while the inner loops are parallelized — the reset pass and minimize pass
// as multithreaded row loops, the ray fan as parallel sectors. No locking is
// needed because threats are processed one at a time; the parallelism is in
// exactly the loops that are sequential in Program 3.
func Fine(t *machine.Thread, s *Scenario, sectors, mergeChunks int, o Opt) *Output {
	if sectors < 1 || mergeChunks < 1 {
		panic("terrain: Fine needs ≥1 sector and ≥1 merge chunk")
	}
	if o.Costs == (Costs{}) {
		o.Costs = FineDefaultCosts
	}
	lay := NewLayout(t, s, o)
	c := lay.Costs
	temp := lay.AllocField(t, "shared")
	out := lay.newOutput()
	out.TempBytes = temp.Size

	var f *Field
	for i := range s.Threats {
		site := &s.Threats[i]
		f = lay.nextField(site, f)
		off, cells := lay.bboxBytes(site)
		// The per-threat driver stays serial even in the fine-grained
		// version — the execution bottleneck the paper predicts for the MTA.
		t.Compute(int64(cells) * c.SerialOpsPerCell)
		lay.fillParallel(t, site, f, temp, sectors, mergeChunks)

		// Parallel minimize into the shared masking array.
		side := 2*site.R + 1
		threads.ParChunks(t, s.Name+" merge", side, mergeChunks, func(ct *machine.Thread, ch, lo, hi int) {
			if hi > lo {
				rowOff := off + uint64(lo*s.Grid.W)*4
				lay.chargePass(ct, lay.Mask, rowOff, (hi-lo)*side, 1, 1, c.OpsPerMergeCell)
				lay.chargePass(ct, temp, uint64(lo*side)*4, (hi-lo)*side, 1, 0, 0)
				if !lay.ChargeOnly {
					for row := lo; row < hi; row++ {
						out.Masking.MergeRow(f, row)
					}
				}
			}
		})
	}
	return out
}

// CoarseTempBytesFullScale returns the private temp storage the coarse
// variant needs for the given worker count at the paper's full problem size
// (double-precision temp arrays over the full ROI). The paper's observation
// that the Tera needs hundreds of threads, each with its own temp array,
// makes this "impractical for large numbers of threads": at 256 workers it
// exceeds the paper machine's 2 GB.
func CoarseTempBytesFullScale(workers int) uint64 {
	const fullROISide = 2*1034 + 1 // 5% ROI of the full-size benchmark terrain
	return uint64(workers) * fullROISide * fullROISide * 8
}

// Hybrid combines both parallel dimensions for larger machines: a dynamic
// multithreaded loop over threats (Program 4's structure, with per-worker
// temp arrays and block locks) whose per-threat inner loops are themselves
// parallelized into ray sectors and merge chunks (the fine-grained
// structure). The paper could not evaluate configurations beyond two
// processors; this is the natural program for the larger machines its §8
// looks forward to — it overlaps the per-threat serial driver sections that
// otherwise bound fine-grained scaling (Amdahl), at a memory cost of only
// `workers` temp arrays rather than hundreds.
func Hybrid(t *machine.Thread, s *Scenario, workers, sectors, mergeChunks, blocks int, o Opt) *Output {
	if workers < 1 || sectors < 1 || mergeChunks < 1 || blocks < 1 {
		panic("terrain: Hybrid needs ≥1 worker, sector, merge chunk and block")
	}
	if o.Costs == (Costs{}) {
		o.Costs = FineDefaultCosts
	}
	lay := NewLayout(t, s, o)
	return lay.crew(t, workers, blocks, func(wt *machine.Thread, site *ThreatSite, f *Field, temp *mem.Region) {
		lay.fillParallel(wt, site, f, temp, sectors, mergeChunks)
	})
}
