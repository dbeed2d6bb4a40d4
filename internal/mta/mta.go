// Package mta models the Tera Multithreaded Architecture (MTA-1) as
// evaluated in the paper: up to 256 processors at 255 MHz, 128 hardware
// streams per processor, a 21-stage pipeline that lets each stream issue at
// most one instruction every 21 cycles, a uniform-access shared memory with
// no caches and a full/empty bit on every word, near-free hardware thread
// create (2 cycles) and 1-cycle synchronization operations.
//
// The model reproduces the mechanisms behind every MTA result in the paper:
//
//   - Instruction issue per processor is a processor-sharing resource of
//     1 instruction/cycle with a per-stream cap of 1/21 — a single-threaded
//     program achieves ~5% utilization ("a single thread … can issue only
//     one instruction every 21 cycles"), while dozens of streams saturate.
//   - Memory has no cache: serially-dependent loads expose the full memory
//     latency to their stream (minus what the issue gap already hides);
//     pipelined (lookahead) bursts expose it only once per burst. With many
//     streams these stalls overlap and the machine stays issue-bound —
//     latency masking by multithreading.
//   - The two-processor configuration's interconnection network was still
//     "under development": remote latency is multiplied and aggregate
//     memory bandwidth discounted by configurable factors, which is what
//     limits two-processor speedup to the paper's 1.4–1.8.
//   - Threads beyond 128 per processor are queued and admitted as streams
//     retire, as the MTA runtime multiplexed software threads onto streams.
package mta

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/psq"
	"repro/internal/sim"
)

// Params configures the MTA model. Zero fields are filled from DefaultParams.
type Params struct {
	Procs           int     // processors (paper machine: 2)
	ClockHz         float64 // 255 MHz
	StreamsPerProc  int     // hardware streams per processor: 128
	IssueGap        float64 // min cycles between instructions of one stream: 21
	OpsPerInstr     float64 // abstract ops packed per LIW instruction
	MemLatency      float64 // local memory latency, cycles
	MemBandwidth    float64 // memory refs per cycle per processor
	NetLatencyMult  float64 // memory latency multiplier when Procs > 1
	NetBandwidthEff float64 // aggregate bandwidth efficiency when Procs > 1
	HWThreadCreate  float64 // cycles to create a stream
	SWThreadCreate  float64 // cycles for the runtime's software-thread path
}

// DefaultParams returns the calibrated MTA-1 parameters used throughout the
// reproduction. OpsPerInstr reflects the 3-wide LIW instruction word with
// imperfect packing; MemLatency and the network factors are tuned so the
// model lands on the paper's sequential/parallel ratios (tables 2–12).
func DefaultParams(procs int) Params {
	return Params{
		Procs:           procs,
		ClockHz:         255e6,
		StreamsPerProc:  128,
		IssueGap:        21,
		OpsPerInstr:     4.47,
		MemLatency:      140,
		MemBandwidth:    0.9,
		NetLatencyMult:  1.7,
		NetBandwidthEff: 0.75,
		HWThreadCreate:  2,
		SWThreadCreate:  75,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams(p.Procs)
	if p.ClockHz == 0 {
		p.ClockHz = d.ClockHz
	}
	if p.StreamsPerProc == 0 {
		p.StreamsPerProc = d.StreamsPerProc
	}
	if p.IssueGap == 0 {
		p.IssueGap = d.IssueGap
	}
	if p.OpsPerInstr == 0 {
		p.OpsPerInstr = d.OpsPerInstr
	}
	if p.MemLatency == 0 {
		p.MemLatency = d.MemLatency
	}
	if p.MemBandwidth == 0 {
		p.MemBandwidth = d.MemBandwidth
	}
	if p.NetLatencyMult == 0 {
		p.NetLatencyMult = d.NetLatencyMult
	}
	if p.NetBandwidthEff == 0 {
		p.NetBandwidthEff = d.NetBandwidthEff
	}
	if p.HWThreadCreate == 0 {
		p.HWThreadCreate = d.HWThreadCreate
	}
	if p.SWThreadCreate == 0 {
		p.SWThreadCreate = d.SWThreadCreate
	}
	return p
}

// Model implements machine.Model for the Tera MTA.
type Model struct {
	p Params

	e      *machine.Engine
	issue  []*psq.Queue // per-processor instruction issue
	memory *psq.Queue   // aggregate memory pipeline

	free     []int      // free stream slots per processor
	admitQ   *sim.WaitQ // threads waiting for any stream slot
	nextProc int        // round-robin start for slot search

	effLatency float64
}

var _ machine.Model = (*Model)(nil)

// New creates an MTA machine with the given parameters (zero fields take
// defaults) and returns the engine ready to Run.
func New(p Params) *machine.Engine {
	if p.Procs < 1 {
		p.Procs = 1
	}
	p = p.withDefaults()
	m := &Model{p: p}
	cfg := machine.Config{
		Name:    fmt.Sprintf("Tera MTA (%d proc)", p.Procs),
		ClockHz: p.ClockHz,
		Procs:   p.Procs,
	}
	return machine.New(cfg, m)
}

// Params returns the model's effective parameters.
func (m *Model) Params() Params { return m.p }

// Init implements machine.Model.
func (m *Model) Init(e *machine.Engine) {
	m.e = e
	m.issue = make([]*psq.Queue, m.p.Procs)
	m.free = make([]int, m.p.Procs)
	for i := range m.issue {
		m.issue[i] = psq.New(e.Kern, fmt.Sprintf("mta issue p%d", i), 1.0, 1.0/m.p.IssueGap)
		m.free[i] = m.p.StreamsPerProc
	}
	bw := float64(m.p.Procs) * m.p.MemBandwidth
	m.effLatency = m.p.MemLatency
	if m.p.Procs > 1 {
		bw *= m.p.NetBandwidthEff
		m.effLatency *= m.p.NetLatencyMult
	}
	m.memory = psq.New(e.Kern, "mta memory", bw, 0)
	m.admitQ = sim.NewWaitQ("mta stream slots")
}

// Compute implements machine.Model: ops are packed into LIW instructions and
// issued through the processor's shared issue logic.
func (m *Model) Compute(t *machine.Thread, ops int64) {
	m.issue[t.Proc].Serve(t.P, float64(ops)/m.p.OpsPerInstr)
}

// Memory implements machine.Model. The instruction cost of references is
// included in Compute (the charging convention); Memory charges bandwidth
// through the shared memory pipeline plus exposed latency: dependent
// references expose the memory latency per reference, pipelined (lookahead)
// bursts expose it once.
func (m *Model) Memory(t *machine.Thread, b mem.Burst) {
	n := float64(b.N)
	start := t.P.Now()
	m.memory.Serve(t.P, n)
	if b.Write {
		return // stores retire without stalling the stream
	}
	if b.Dep {
		// A serially-dependent chain of n loads takes at least n×latency;
		// issue and bandwidth time already spent counts toward that.
		elapsed := t.P.Now() - start
		if want := n * m.effLatency; want > elapsed {
			t.P.Sleep(want - elapsed)
		}
	} else {
		// Lookahead pipelines the burst; only the final load's latency is
		// exposed to the stream.
		t.P.Sleep(m.effLatency)
	}
}

// syncOpCost charges one instruction plus a round-trip to memory — the cost
// shape of the MTA's 1-cycle synchronization instructions, whose result
// (like any memory operation) returns after the memory latency.
func (m *Model) syncOpCost(t *machine.Thread) {
	m.issue[t.Proc].Serve(t.P, 1)
	m.memory.Serve(t.P, 1)
	t.P.Sleep(m.effLatency)
}

// SyncTouch implements machine.Model.
func (m *Model) SyncTouch(t *machine.Thread) { m.syncOpCost(t) }

// AtomicTouch implements machine.Model: int_fetch_add executes at the
// memory — same cost shape as a sync operation.
func (m *Model) AtomicTouch(t *machine.Thread) { m.syncOpCost(t) }

// LockTouch implements machine.Model: MTA locks are built from full/empty
// bits, so a lock operation costs the same as a sync operation.
func (m *Model) LockTouch(t *machine.Thread) { m.syncOpCost(t) }

// BarrierTouch implements machine.Model.
func (m *Model) BarrierTouch(t *machine.Thread) { m.syncOpCost(t) }

// SpawnCost implements machine.Model: hardware stream creation when a slot
// is free, the runtime's software-thread path otherwise.
func (m *Model) SpawnCost(parent *machine.Thread) {
	cost := m.p.SWThreadCreate
	if m.anyFreeSlot() {
		cost = m.p.HWThreadCreate
	}
	m.issue[parent.Proc].Serve(parent.P, 1)
	parent.P.Sleep(cost)
}

func (m *Model) anyFreeSlot() bool {
	for _, f := range m.free {
		if f > 0 {
			return true
		}
	}
	return false
}

// Admit implements machine.Model: acquire a stream slot, queueing FIFO when
// all 128×procs streams are busy (the runtime multiplexes excess threads).
func (m *Model) Admit(t *machine.Thread) {
	for {
		// Prefer the least-loaded processor, breaking ties round-robin.
		best, bestFree := -1, 0
		for i := 0; i < m.p.Procs; i++ {
			pi := (m.nextProc + i) % m.p.Procs
			if m.free[pi] > bestFree {
				best, bestFree = pi, m.free[pi]
			}
		}
		if best >= 0 {
			m.free[best]--
			m.nextProc = (best + 1) % m.p.Procs
			t.Proc = best
			return
		}
		m.admitQ.Wait(t.P, "stream slot")
	}
}

// Release implements machine.Model: return the stream slot and admit the
// next queued thread, if any.
func (m *Model) Release(t *machine.Thread) {
	m.free[t.Proc]++
	m.admitQ.WakeOne(m.e.Kern)
}

// Finish implements machine.Model.
func (m *Model) Finish(st *machine.Stats) {
	st.ProcUtil = make([]float64, len(m.issue))
	for i, q := range m.issue {
		st.ProcUtil[i] = q.Utilization()
	}
	st.MemUtil = m.memory.Utilization()
}
