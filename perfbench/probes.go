package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/psq"
	"repro/internal/sim"
	"repro/internal/smp"
)

// Layer microprobes: fixed amounts of work through the public APIs of the
// sim, psq and cache packages, shaped from the workloads' own data, each
// repeated probeReps times and reported as the median.
const probeReps = 5

// probe runs fn probeReps times; fn does ops operations. It returns the
// median host ns per operation and the heap allocations per operation of
// the last repetition.
func probe(ops int, fn func()) (nsPerOp, allocsPerOp float64) {
	var ns []float64
	var ms runtime.MemStats
	for i := 0; i < probeReps; i++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		start := time.Now()
		fn()
		d := time.Since(start)
		runtime.ReadMemStats(&ms)
		ns = append(ns, float64(d)/float64(ops))
		allocsPerOp = float64(ms.Mallocs-m0) / float64(ops)
	}
	return median(ns), allocsPerOp
}

// runProbes stores every microprobe metric. simProcs is paper-mta's median
// live-thread high-water mark, the proc count the kernel probe runs.
func runProbes(v map[string]float64, simProcs int) {
	if simProcs < 1 {
		simProcs = 1
	}
	const steps = 200
	v["sim.event_ns"], v["sim.allocs_per_event"] = probe(simProcs*steps, func() { sleepers(simProcs, steps) })
	v["sim.wake_ns"], _ = probe(simProcs*steps, func() { wakeRounds(simProcs, steps) })

	// Capped: one MTA processor's issue logic, rate 1 shared by more streams
	// than the 21 that saturate it, each capped at 1/21.
	const clients, serves = 32, 200
	v["psq.serve_capped_ns"], v["psq.allocs_per_serve"] = probe(clients*serves, func() {
		serveLoop(1, 1.0/21, clients, serves, 21)
	})
	// Uncapped: an SMP memory bus, bytes per cycle, one line per Serve.
	ex := smp.Exemplar(16)
	v["psq.serve_uncapped_ns"], _ = probe(clients*serves, func() {
		serveLoop(ex.BusBytesPerCycle, 0, clients, serves, float64(ex.LineBytes))
	})

	// Cache: the Exemplar geometry, streaming a working set four times the
	// cache against a resident one half its size.
	const bursts = 20000
	c := cache.New(ex.CacheBytes, ex.LineBytes, ex.GranuleBytes)
	space := mem.NewSpace()
	stream := space.Alloc("stream", 4*ex.CacheBytes)
	resident := space.Alloc("resident", ex.CacheBytes/2)
	v["cache.burst_stream_ns"], v["cache.allocs_per_burst"] = probe(bursts, func() { sweep(c, stream, bursts) })
	sweep(c, resident, bursts) // fill before timing the resident set
	v["cache.burst_resident_ns"], _ = probe(bursts, func() { sweep(c, resident, bursts) })
	const refs = 200000
	v["cache.ref_ns"], _ = probe(refs, func() {
		for i := 0; i < refs; i++ {
			c.Access(resident.Addr(uint64(i*72) % resident.Size))
		}
	})
}

// sleepers runs procs procs that each sleep one cycle steps times: one
// kernel event and one proc switch per sleep.
func sleepers(procs, steps int) {
	k := sim.NewKernel()
	for i := 0; i < procs; i++ {
		k.Spawn(fmt.Sprintf("sleeper-%d", i), func(p *sim.Proc) {
			for j := 0; j < steps; j++ {
				p.Sleep(1)
			}
		})
	}
	mustRun(k)
}

// wakeRounds parks procs procs on a wait queue and wakes them all once per
// cycle, rounds times: one park and one wake-up per proc per round.
func wakeRounds(procs, rounds int) {
	k := sim.NewKernel()
	q := sim.NewWaitQ("probe")
	for i := 0; i < procs; i++ {
		k.Spawn(fmt.Sprintf("waiter-%d", i), func(p *sim.Proc) {
			for j := 0; j < rounds; j++ {
				q.Wait(p, "round")
			}
		})
	}
	k.Spawn("waker", func(p *sim.Proc) {
		for j := 0; j < rounds; j++ {
			p.Sleep(1)
			q.WakeAll(p.Kernel())
		}
	})
	mustRun(k)
}

// serveLoop has clients procs each request work units serves times from one
// processor-sharing queue.
func serveLoop(rate, perClientCap float64, clients, serves int, work float64) {
	k := sim.NewKernel()
	q := psq.New(k, "probe", rate, perClientCap)
	for i := 0; i < clients; i++ {
		k.Spawn(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			for j := 0; j < serves; j++ {
				q.Serve(p, work)
			}
		})
	}
	mustRun(k)
}

// sweep walks the region with n sequential 256-element, 8-byte bursts,
// wrapping at its end.
func sweep(c *cache.Cache, r *mem.Region, n int) {
	const elems, elem = 256, 8
	per := uint64(elems * elem)
	slots := r.Size / per
	for i := 0; i < n; i++ {
		c.AccessBurst(mem.ReadBurst(r, uint64(i)%slots*per, elem, elems))
	}
}

// mustRun runs a probe kernel; a probe that deadlocks is a bug in the probe
// or the kernel, and no figure it gives would mean anything.
func mustRun(k *sim.Kernel) {
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("perfbench: probe kernel: %v", err))
	}
}
