// Package machine provides the platform-independent programming interface
// shared by every simulated machine in this repository, together with the
// thread, lock, full/empty synchronization-variable, counter and barrier
// primitives the C3I benchmark programs are written against.
//
// A machine is an Engine (thread lifecycle, synchronization semantics,
// statistics) combined with a Model (platform-specific operation pricing).
// Package mta supplies the Tera MTA model; package smp supplies the
// conventional cached shared-memory models (AlphaStation, Pentium Pro SMP,
// HP Exemplar). Benchmarks written against *machine.Thread run unmodified on
// every platform, exactly as the paper's C sources did.
//
// Charging convention: benchmark kernels charge Compute(ops) for all
// instructions executed, including loads and stores, and separately describe
// their data traffic with Burst so that the platform can price cache misses,
// bus or network bandwidth, and exposed memory latency. Synchronization
// primitives charge their own costs.
package machine

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config identifies a simulated platform.
type Config struct {
	Name    string  // e.g. "Tera MTA (2 proc)"
	ClockHz float64 // processor clock
	Procs   int     // processor count
}

// Stats aggregates activity over one Run. The JSON tags are the
// internal/run Record wire format.
type Stats struct {
	Cycles      float64   `json:"cycles"`     // simulated cycles from start to completion
	Ops         int64     `json:"ops"`        // abstract operations charged via Compute
	MemRefs     int64     `json:"mem_refs"`   // references described via Burst
	CacheHits   int64     `json:"cache_hits"` // conventional machines only
	CacheMisses int64     `json:"cache_misses"`
	SyncOps     int64     `json:"sync_ops"`    // full/empty variable touches
	AtomicOps   int64     `json:"atomic_ops"`  // counter fetch-and-add operations
	LockOps     int64     `json:"lock_ops"`    // lock/unlock operations
	BarrierOps  int64     `json:"barrier_ops"` // barrier arrivals
	Spawns      int64     `json:"spawns"`      // threads created
	MaxLive     int       `json:"max_live"`    // high-water mark of live threads
	ProcUtil    []float64 `json:"proc_util"`   // per-processor utilization (issue or execution)
	MemUtil     float64   `json:"mem_util"`    // memory/bus utilization
}

// Result is the outcome of running a program on a machine.
type Result struct {
	Seconds float64 // simulated wall-clock seconds
	Stats   Stats
}

// Model prices operations for a specific platform. Implementations may block
// the calling thread's proc on psq resources or sleeps. All methods are
// invoked from inside the simulation.
type Model interface {
	// Init is called once per Run with the fresh engine, so the model can
	// create its simulation resources (issue queues, buses, caches).
	Init(e *Engine)
	// Compute charges ops abstract operations of pure execution to t.
	Compute(t *Thread, ops int64)
	// Memory charges the data traffic described by b to t.
	Memory(t *Thread, b mem.Burst)
	// SyncTouch charges one full/empty-bit operation (excluding block time).
	SyncTouch(t *Thread)
	// AtomicTouch charges one atomic fetch-and-add.
	AtomicTouch(t *Thread)
	// LockTouch charges one lock or unlock operation (excluding block time).
	LockTouch(t *Thread)
	// BarrierTouch charges one barrier arrival (excluding block time).
	BarrierTouch(t *Thread)
	// SpawnCost charges the parent for creating one thread.
	SpawnCost(parent *Thread)
	// Admit is called on the child thread before its body runs. It assigns
	// t.Proc and may block until an execution slot (e.g. a hardware stream)
	// is available.
	Admit(t *Thread)
	// Release is called when a thread's body returns, freeing its slot.
	Release(t *Thread)
	// Finish fills machine-specific fields of st after the run completes.
	Finish(st *Stats)
}

// Engine runs programs on a Model. Create one per Run via New.
type Engine struct {
	Kern  *sim.Kernel
	Space *mem.Space
	cfg   Config
	model Model

	tracer *trace.Log
	stats  Stats
	live   int
}

// New creates an engine for one run on the given model.
func New(cfg Config, model Model) *Engine {
	if cfg.Procs < 1 {
		panic(fmt.Sprintf("machine: config %q has %d procs", cfg.Name, cfg.Procs))
	}
	if cfg.ClockHz <= 0 {
		panic(fmt.Sprintf("machine: config %q has clock %g", cfg.Name, cfg.ClockHz))
	}
	e := &Engine{Kern: sim.NewKernel(), Space: mem.NewSpace(), cfg: cfg, model: model}
	model.Init(e)
	return e
}

// Config returns the engine's platform description.
func (e *Engine) Config() Config { return e.cfg }

// Model returns the engine's cost model, for platform-specific inspection.
func (e *Engine) Model() Model { return e.model }

// SetTracer attaches a timeline log; thread starts, ends and Marks are
// recorded into it. Must be called before Run.
func (e *Engine) SetTracer(t *trace.Log) { e.tracer = t }

// Tracer returns the attached timeline log (nil when tracing is off).
func (e *Engine) Tracer() *trace.Log { return e.tracer }

// Stats returns a snapshot of the counters accumulated so far.
func (e *Engine) Stats() Stats { return e.stats }

// Run executes main as the program's initial thread and returns simulated
// time and statistics. The engine must not be reused afterwards.
func (e *Engine) Run(name string, main func(t *Thread)) (Result, error) {
	root := e.newThread(nil, name, main)
	root.start()
	if err := e.Kern.Run(); err != nil {
		return Result{}, err
	}
	e.stats.Cycles = e.Kern.Now()
	e.model.Finish(&e.stats)
	return Result{
		Seconds: e.stats.Cycles / e.cfg.ClockHz,
		Stats:   e.stats,
	}, nil
}

// Thread is a simulated thread of execution and the context benchmark code
// runs in. All methods must be called from the thread's own body.
type Thread struct {
	E    *Engine
	P    *sim.Proc
	Proc int // processor index, assigned by Model.Admit

	name string
	body func(*Thread)
	done bool
	wait *sim.WaitQ // joiners
}

func (e *Engine) newThread(parent *Thread, name string, body func(*Thread)) *Thread {
	t := &Thread{E: e, name: name, body: body, wait: sim.NewWaitQ("join " + name)}
	e.stats.Spawns++
	e.live++
	if e.live > e.stats.MaxLive {
		e.stats.MaxLive = e.live
	}
	return t
}

// start launches the thread's sim proc.
func (t *Thread) start() {
	t.P = t.E.Kern.Spawn(t.name, func(p *sim.Proc) {
		t.E.model.Admit(t)
		t.E.tracer.Record(trace.Event{T: p.Now(), Thread: t.name, Proc: t.Proc, Kind: trace.ThreadStart})
		t.body(t)
		t.E.model.Release(t)
		t.E.tracer.Record(trace.Event{T: p.Now(), Thread: t.name, Proc: t.Proc, Kind: trace.ThreadEnd})
		t.E.live--
		t.done = true
		t.wait.WakeAll(t.E.Kern)
	})
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// NowCycles returns the current simulated time in cycles.
func (t *Thread) NowCycles() float64 { return t.P.Now() }

// NowSeconds returns the current simulated time in seconds.
func (t *Thread) NowSeconds() float64 { return t.P.Now() / t.E.cfg.ClockHz }

// Mark annotates the thread's timeline with a named phase point (a no-op
// when no tracer is attached).
func (t *Thread) Mark(label string) {
	t.E.tracer.Record(trace.Event{T: t.P.Now(), Thread: t.name, Proc: t.Proc, Kind: trace.Mark, Label: label})
}

// Compute charges ops abstract operations of execution.
func (t *Thread) Compute(ops int64) {
	if ops <= 0 {
		return
	}
	t.E.stats.Ops += ops
	t.E.model.Compute(t, ops)
}

// Burst charges the memory traffic described by b.
func (t *Thread) Burst(b mem.Burst) {
	if b.N <= 0 {
		return
	}
	b.Validate()
	t.E.stats.MemRefs += int64(b.N)
	t.E.model.Memory(t, b)
}

// BurstWrapped charges n references of elem bytes, stride bytes apart, as
// one or more bursts from offset zero of r: each burst covers as many
// references as fit inside the region and the rest wrap around to the start,
// so traffic larger than its region keeps its full reference count.
func (t *Thread) BurstWrapped(r *mem.Region, stride, elem uint64, n int, write, dep bool) {
	if n <= 0 {
		return
	}
	per := int((r.Size-elem)/stride) + 1
	for n > 0 {
		k := min(n, per)
		t.Burst(mem.Burst{Region: r, Stride: stride, Elem: elem, N: k, Write: write, Dep: dep})
		n -= k
	}
}

// Read charges a single serially-dependent load of elem bytes.
func (t *Thread) Read(r *mem.Region, off, elem uint64) {
	t.Burst(mem.Burst{Region: r, Offset: off, Elem: elem, N: 1, Dep: true})
}

// Write charges a single store of elem bytes.
func (t *Thread) Write(r *mem.Region, off, elem uint64) {
	t.Burst(mem.Burst{Region: r, Offset: off, Elem: elem, N: 1, Write: true})
}

// Alloc reserves a named region in the machine's address space.
func (t *Thread) Alloc(name string, bytes uint64) *mem.Region {
	return t.E.Space.Alloc(name, bytes)
}

// Go spawns a child thread running fn and returns its handle. The spawn cost
// is charged to the caller.
func (t *Thread) Go(name string, fn func(*Thread)) *Thread {
	t.E.model.SpawnCost(t)
	c := t.E.newThread(t, name, fn)
	c.start()
	return c
}

// Join blocks until c's body has returned.
func (t *Thread) Join(c *Thread) {
	for !c.done {
		c.wait.Wait(t.P, "join")
	}
}

// JoinAll joins every thread in ts in order.
func (t *Thread) JoinAll(ts []*Thread) {
	for _, c := range ts {
		t.Join(c)
	}
}

// Lock is a mutual-exclusion lock with FIFO-fair blocking.
type Lock struct {
	e    *Engine
	name string
	held bool
	q    *sim.WaitQ
}

// NewLock creates a lock.
func (t *Thread) NewLock(name string) *Lock {
	return &Lock{e: t.E, name: name, q: sim.NewWaitQ("lock " + name)}
}

// Lock acquires the lock, blocking while it is held.
func (l *Lock) Lock(t *Thread) {
	l.e.stats.LockOps++
	l.e.model.LockTouch(t)
	for l.held {
		l.q.Wait(t.P, "acquire")
	}
	l.held = true
}

// Unlock releases the lock and wakes one waiter.
func (l *Lock) Unlock(t *Thread) {
	if !l.held {
		panic("machine: Unlock of unheld lock " + l.name)
	}
	l.e.stats.LockOps++
	l.e.model.LockTouch(t)
	l.held = false
	l.q.WakeOne(l.e.Kern)
}

// SyncVar is a word of memory with a full/empty bit — the Tera MTA's
// fine-grained synchronization primitive. It is created empty. On
// conventional machines the same semantics are emulated (expensively) with
// a lock and condition variable; the Model prices the difference.
type SyncVar struct {
	e    *Engine
	name string
	full bool
	val  int64
	q    *sim.WaitQ
}

// NewSyncVar creates an empty synchronization variable.
func (t *Thread) NewSyncVar(name string) *SyncVar {
	return &SyncVar{e: t.E, name: name, q: sim.NewWaitQ("syncvar " + name)}
}

func (v *SyncVar) touch(t *Thread) {
	v.e.stats.SyncOps++
	v.e.model.SyncTouch(t)
}

// ReadFF waits until the variable is full and returns its value, leaving it
// full (read when full, leave full).
func (v *SyncVar) ReadFF(t *Thread) int64 {
	v.touch(t)
	for !v.full {
		v.q.Wait(t.P, "readFF")
	}
	return v.val
}

// ReadFE waits until the variable is full, sets it empty, and returns the
// value (read when full, set empty).
func (v *SyncVar) ReadFE(t *Thread) int64 {
	v.touch(t)
	for !v.full {
		v.q.Wait(t.P, "readFE")
	}
	v.full = false
	v.q.WakeAll(v.e.Kern)
	return v.val
}

// WriteEF waits until the variable is empty, then stores x and sets it full
// (write when empty, set full).
func (v *SyncVar) WriteEF(t *Thread, x int64) {
	v.touch(t)
	for v.full {
		v.q.Wait(t.P, "writeEF")
	}
	v.full = true
	v.val = x
	v.q.WakeAll(v.e.Kern)
}

// Write stores x and sets the variable full unconditionally (ordinary store
// with the full bit set).
func (v *SyncVar) Write(t *Thread, x int64) {
	v.touch(t)
	v.full = true
	v.val = x
	v.q.WakeAll(v.e.Kern)
}

// Reset sets the variable empty unconditionally (purge).
func (v *SyncVar) Reset(t *Thread) {
	v.touch(t)
	v.full = false
	v.q.WakeAll(v.e.Kern)
}

// Full reports the state of the full/empty bit without charging a touch
// (test-and-inspection helper, not a simulated operation).
func (v *SyncVar) Full() bool { return v.full }

// Counter is an atomic fetch-and-add cell (the MTA's int_fetch_add; a
// bus-locked read-modify-write on conventional machines).
type Counter struct {
	e    *Engine
	name string
	val  int64
}

// NewCounter creates a counter with the given initial value. The name is
// recorded in the timeline (a SyncAlloc event) like every other named
// primitive, so traces show which counters a phase allocates.
func (t *Thread) NewCounter(name string, init int64) *Counter {
	t.E.tracer.Record(trace.Event{T: t.P.Now(), Thread: t.name, Proc: t.Proc,
		Kind: trace.SyncAlloc, Label: "counter " + name})
	return &Counter{e: t.E, name: name, val: init}
}

// Name returns the counter's diagnostic name.
func (c *Counter) Name() string { return c.name }

// Next atomically returns the current value and increments by one.
func (c *Counter) Next(t *Thread) int64 {
	return c.Add(t, 1)
}

// Add atomically returns the current value and adds d.
func (c *Counter) Add(t *Thread, d int64) int64 {
	c.e.stats.AtomicOps++
	c.e.model.AtomicTouch(t)
	v := c.val
	c.val += d
	return v
}

// Value returns the current value without charging an operation.
func (c *Counter) Value() int64 { return c.val }

// Barrier blocks parties threads until all have arrived, then releases all
// of them; it is reusable across generations.
type Barrier struct {
	e          *Engine
	name       string
	parties    int
	count      int
	generation int
	q          *sim.WaitQ
}

// NewBarrier creates a barrier for the given number of parties. Like
// NewCounter, the name is kept and recorded in the timeline.
func (t *Thread) NewBarrier(name string, parties int) *Barrier {
	if parties < 1 {
		panic("machine: barrier with no parties: " + name)
	}
	t.E.tracer.Record(trace.Event{T: t.P.Now(), Thread: t.name, Proc: t.Proc,
		Kind: trace.SyncAlloc, Label: "barrier " + name})
	return &Barrier{e: t.E, name: name, parties: parties, q: sim.NewWaitQ("barrier " + name)}
}

// Name returns the barrier's diagnostic name.
func (b *Barrier) Name() string { return b.name }

// Arrive blocks until all parties have arrived at the current generation.
func (b *Barrier) Arrive(t *Thread) {
	b.e.stats.BarrierOps++
	b.e.model.BarrierTouch(t)
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.generation++
		b.q.WakeAll(b.e.Kern)
		return
	}
	g := b.generation
	for b.generation == g {
		b.q.Wait(t.P, "arrive")
	}
}
