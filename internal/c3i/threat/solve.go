package threat

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/threads"
)

// Costs is the charging calibration for the Threat Analysis kernel: how many
// abstract operations and memory references the original C program performs
// per simulation step. OpsPerStep is calibrated so the five-scenario suite
// at scale 1 takes ≈187 simulated seconds on the AlphaStation model (the
// paper's Table 2).
type Costs struct {
	OpsPerStep      int64 // instructions per time step (geometry, envelope tests)
	TrajRefsPerStep int   // streaming reads of the input trajectory samples
	DepRefsPerStep  int   // dependent loads: state reloads across the call chain
	OpsPerInterval  int64 // bookkeeping per emitted interval
}

// DefaultCosts is the calibrated cost set (see Costs).
var DefaultCosts = Costs{
	OpsPerStep:      560,
	TrajRefsPerStep: 3,
	DepRefsPerStep:  8,
	OpsPerInterval:  16,
}

// maxWindowsPerPair bounds how many interception windows one (threat,
// weapon) pair may contribute; interval arrays are sized with it. The
// generator's geometry yields at most three.
const maxWindowsPerPair = 8

// intervalBytes is the stored size of one interval tuple.
const intervalBytes = 32

// Layout holds the simulated-memory placement of a scenario's input data.
type Layout struct {
	Scenario *Scenario
	Costs    Costs
	Traj     *mem.Region // per-threat trajectory samples (x,y,z per step)
	State    *mem.Region // threat and weapon state structures
	trajOff  []uint64    // byte offset of each threat's samples in Traj
}

// NewLayout allocates the scenario's input arrays in the machine's address
// space: the trajectory samples the time-stepped scan reads, and the
// threat/weapon state structures it consults through its call chain.
func NewLayout(t *machine.Thread, s *Scenario, c Costs) *Layout {
	lay := &Layout{Scenario: s, Costs: c, trajOff: make([]uint64, len(s.Threats))}
	// 3 float64 samples per step; at least wide enough for the configured
	// streaming-read pattern (cost ablations may redirect dependent refs
	// through this region).
	perStep := uint64(24)
	if w := uint64(c.TrajRefsPerStep) * 8; w > perStep {
		perStep = w
	}
	var total uint64
	for i := range s.Threats {
		lay.trajOff[i] = total
		total += uint64(s.PairSteps(&s.Threats[i])) * perStep
	}
	if total == 0 {
		total = 24
	}
	lay.Traj = t.Alloc(s.Name+" trajectories", total)
	lay.State = t.Alloc(s.Name+" state", uint64(len(s.Threats)+len(s.Weapons))*64)
	return lay
}

// ScanPair runs the charged time-stepped scan for one (threat, weapon) pair,
// invoking emit for each interception window. The charges model Program 1's
// inner loop: OpsPerStep instructions per step, streaming reads of the
// trajectory input, and DepRefsPerStep dependent loads per step (state
// reloaded across function-call boundaries — cheap under a cache, exposed
// memory latency on the cache-less MTA).
func (lay *Layout) ScanPair(t *machine.Thread, ti, wi int, emit func(t1, t2 int)) {
	s := lay.Scenario
	th := &s.Threats[ti]
	steps := s.PairSteps(th)
	if steps <= 0 {
		return
	}
	t.Compute(int64(steps) * lay.Costs.OpsPerStep)
	t.Burst(mem.Burst{
		Region: lay.Traj, Offset: lay.trajOff[ti],
		Stride: 8, Elem: 8, N: lay.Costs.TrajRefsPerStep * steps,
	})
	t.Burst(mem.Burst{
		Region: lay.State, Offset: uint64(len(s.Threats)+wi) * 64,
		Stride: 0, Elem: 8, N: lay.Costs.DepRefsPerStep * steps, Dep: true,
	})
	s.CachedPairIntervals(ti, wi, emit)
}

// Output is a solver's result: the interception intervals plus the total
// bytes of interval-array storage the variant had to allocate — the memory
// overhead the paper discusses for chunked parallelization.
type Output struct {
	Intervals  []Interval
	ArrayBytes uint64
}

// Sequential is Program 1: triple-nested scan with one shared interval count
// and array. It runs entirely on the calling thread.
func Sequential(t *machine.Thread, s *Scenario, c Costs) *Output {
	lay := NewLayout(t, s, c)
	capInts := len(s.Threats) * len(s.Weapons) * maxWindowsPerPair
	region := t.Alloc(s.Name+" intervals", uint64(capInts)*intervalBytes)
	out := &Output{ArrayBytes: region.Size}
	for ti := range s.Threats {
		for wi := range s.Weapons {
			lay.ScanPair(t, ti, wi, func(t1, t2 int) {
				n := len(out.Intervals)
				if n >= capInts {
					panic("threat: interval array overflow in Sequential")
				}
				out.Intervals = append(out.Intervals, Interval{Threat: ti, Weapon: wi, T1: t1, T2: t2})
				t.Compute(c.OpsPerInterval)
				t.Burst(mem.WriteBurst(region, uint64(n)*intervalBytes, 8, 4))
			})
		}
	}
	return out
}

// Chunked is Program 2: the outer loop over threats becomes a multithreaded
// loop over chunks, each chunk appending to its own generously-oversized
// interval array and its own count. Results are deterministic: chunks are
// concatenated in chunk order.
func Chunked(t *machine.Thread, s *Scenario, chunks int, c Costs) *Output {
	lay := NewLayout(t, s, c)
	nt := len(s.Threats)
	perChunk := make([][]Interval, chunks)
	out := &Output{}

	// Each chunk's array must be sized for the worst case since the count
	// cannot be known in advance — the paper's storage drawback: total
	// allocation grows with the chunk count.
	regions := make([]*mem.Region, chunks)
	caps := make([]int, chunks)
	for ch := 0; ch < chunks; ch++ {
		lo, hi := threads.ChunkBounds(nt, chunks, ch)
		capInts := (hi - lo) * len(s.Weapons) * maxWindowsPerPair
		if capInts == 0 {
			capInts = 1
		}
		caps[ch] = capInts
		regions[ch] = t.Alloc(fmt.Sprintf("%s intervals[%d]", s.Name, ch), uint64(capInts)*intervalBytes)
		out.ArrayBytes += regions[ch].Size
	}

	threads.ParChunks(t, s.Name+" chunks", nt, chunks, func(ct *machine.Thread, ch, lo, hi int) {
		for ti := lo; ti < hi; ti++ {
			for wi := range s.Weapons {
				lay.ScanPair(ct, ti, wi, func(t1, t2 int) {
					n := len(perChunk[ch])
					if n >= caps[ch] {
						panic("threat: interval array overflow in Chunked")
					}
					perChunk[ch] = append(perChunk[ch], Interval{Threat: ti, Weapon: wi, T1: t1, T2: t2})
					ct.Compute(c.OpsPerInterval)
					ct.Burst(mem.WriteBurst(regions[ch], uint64(n)*intervalBytes, 8, 4))
				})
			}
		}
	})

	for _, chunk := range perChunk {
		out.Intervals = append(out.Intervals, chunk...)
	}
	return out
}

// FineGrained is the paper's alternative Tera approach: the outer loop over
// threats is parallelized with no chunking (one thread per threat); the
// shared interval count is an atomic fetch-and-add on a synchronization
// variable and all threads append into one shared array. The result order is
// nondeterministic (it depends on thread interleaving), which is exactly the
// testing/debugging complication the paper notes; the interval *set* equals
// the sequential result.
func FineGrained(t *machine.Thread, s *Scenario, c Costs) *Output {
	lay := NewLayout(t, s, c)
	nt := len(s.Threats)
	capInts := nt * len(s.Weapons) * maxWindowsPerPair
	region := t.Alloc(s.Name+" intervals (shared)", uint64(capInts)*intervalBytes)
	out := &Output{ArrayBytes: region.Size}
	next := t.NewCounter(s.Name+" num_intervals", 0)

	slots := make([]Interval, capInts)
	ts := make([]*machine.Thread, nt)
	for ti := 0; ti < nt; ti++ {
		ti := ti
		ts[ti] = t.Go(fmt.Sprintf("%s threat[%d]", s.Name, ti), func(ct *machine.Thread) {
			for wi := range s.Weapons {
				lay.ScanPair(ct, ti, wi, func(t1, t2 int) {
					n := next.Next(ct) // atomic fetch-and-add on a sync variable
					if int(n) >= capInts {
						panic("threat: interval array overflow in FineGrained")
					}
					slots[n] = Interval{Threat: ti, Weapon: wi, T1: t1, T2: t2}
					ct.Compute(c.OpsPerInterval)
					ct.Burst(mem.WriteBurst(region, uint64(n)*intervalBytes, 8, 4))
				})
			}
		})
	}
	t.JoinAll(ts)
	out.Intervals = append(out.Intervals, slots[:next.Value()]...)
	return out
}
