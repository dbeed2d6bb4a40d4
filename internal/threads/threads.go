// Package threads is the structured multithreaded programming layer the
// benchmark programs are written against — the reproduction's counterpart of
// the programming systems used in the paper: the Caltech Sthreads library on
// Windows NT, the Exemplar shared-memory pragmas, and the Tera
// parallelization pragmas and int_fetch_add self-scheduling.
//
// ParChunks is the paper's Program 2 pattern: a "#pragma multithreaded"
// outer loop over chunk subranges, one thread per chunk. Threat Analysis's
// chunked variant uses it, and so do Terrain Masking's fine and hybrid
// variants for each threat's ray sectors, field reset and merge.
//
// Claim is the Tera style's self-scheduled crowd: threads that repeatedly
// claim the next few items of a work list by fetch-and-add. Route
// Optimization, Plot-Track Assignment and Hypothesis Testing run their fine
// variants' frontiers, rounds and observation streams through it.
//
// Crew is the coarse styles' persistent crew of chunk threads that meet the
// parent at a barrier twice per round, the Sthreads and Exemplar structure.
// The coarse variants of Route Optimization and Plot-Track Assignment keep
// one crew across all their rounds.
//
// Program 4's dynamic work queue ("while (unprocessed threats) { threat =
// next unprocessed threat; … }") stays with its only user, Terrain
// Masking's coarse and hybrid variants. It is not a Claim: it spawns every
// worker and gives each one a private temp array even when workers
// outnumber threats, and Table 10's cells include that cost.
//
// Everything is built on *machine.Thread, so the cost of each construct is
// whatever the underlying platform charges: near-free on the Tera MTA model,
// tens of thousands of cycles per thread on the conventional machines.
package threads

import (
	"fmt"

	"repro/internal/machine"
)

// ChunkBounds returns the half-open range [lo, hi) of chunk c when n items
// are split into chunks pieces — the paper's first_threat/last_threat
// formula: lo = (c·n)/chunks, hi = ((c+1)·n)/chunks.
func ChunkBounds(n, chunks, c int) (lo, hi int) {
	return c * n / chunks, (c + 1) * n / chunks
}

// ParChunks runs body(chunk, lo, hi) for every chunk of 0..n-1 split into
// the given number of chunks, each chunk on its own thread, and waits for
// all of them. Chunks with empty ranges still run (their loop bodies simply
// iterate zero times), matching the paper's program structure.
func ParChunks(t *machine.Thread, name string, n, chunks int, body func(c *machine.Thread, chunk, lo, hi int)) {
	if chunks < 1 {
		panic("threads: ParChunks with no chunks: " + name)
	}
	ts := make([]*machine.Thread, chunks)
	for c := 0; c < chunks; c++ {
		c := c
		lo, hi := ChunkBounds(n, chunks, c)
		ts[c] = t.Go(fmt.Sprintf("%s[%d]", name, c), func(th *machine.Thread) {
			body(th, c, lo, hi)
		})
	}
	t.JoinAll(ts)
}

// Claim runs body over 0..n-1 in spans of grain items with a crowd of
// min(⌈n/grain⌉, threadsN) threads, and waits for all of them. Each thread
// claims the next span with one fetch-and-add on a shared counter until the
// counter passes n, so the spans run in claim order but on whichever thread
// got there first. A crowd of at most one thread is no crowd: body(t, 0, n)
// then runs on the caller, with no counter and no spawn.
func Claim(t *machine.Thread, name string, n, grain, threadsN int, body func(c *machine.Thread, lo, hi int)) {
	if grain < 1 || threadsN < 1 {
		panic("threads: Claim needs a positive grain and thread count: " + name)
	}
	nth := min((n+grain-1)/grain, threadsN)
	if nth <= 1 {
		body(t, 0, n)
		return
	}
	next := t.NewCounter(name+" claim", 0)
	ts := make([]*machine.Thread, nth)
	for i := range ts {
		ts[i] = t.Go(fmt.Sprintf("%s[%d]", name, i), func(c *machine.Thread) {
			for {
				lo := int(next.Add(c, int64(grain)))
				if lo >= n {
					return
				}
				body(c, lo, min(lo+grain, n))
			}
		})
	}
	t.JoinAll(ts)
}

// Crew is a persistent crew of worker threads that meet their parent at one
// barrier twice per round: once to start on the round's items and once to
// report them done. Each round, worker w runs its ChunkBounds share of the
// round's n items, and skips the round's work when that share is empty.
type Crew struct {
	bar  *machine.Barrier
	ws   []*machine.Thread
	n    int
	done bool
}

// NewCrew creates the crew's barrier (workers+1 parties, the parent among
// them) and spawns the workers in order. work(wt, w, lo, hi) is worker w's
// share [lo, hi) of a round; it runs on the worker's thread.
func NewCrew(t *machine.Thread, name string, workers int, work func(wt *machine.Thread, w, lo, hi int)) *Crew {
	if workers < 1 {
		panic("threads: Crew with no workers: " + name)
	}
	c := &Crew{bar: t.NewBarrier(name, workers+1), ws: make([]*machine.Thread, workers)}
	for w := range c.ws {
		c.ws[w] = t.Go(fmt.Sprintf("%s[%d]", name, w), func(wt *machine.Thread) {
			for {
				c.bar.Arrive(wt)
				if c.done {
					return
				}
				if lo, hi := ChunkBounds(c.n, workers, w); lo < hi {
					work(wt, w, lo, hi)
				}
				c.bar.Arrive(wt)
			}
		})
	}
	return c
}

// Round runs one round over n items: it releases the crew and waits until
// every worker has finished its share. State the work reads must be set
// before the call.
func (c *Crew) Round(t *machine.Thread, n int) {
	c.n = n
	c.bar.Arrive(t) // release the crew
	c.bar.Arrive(t) // wait for every share to complete
}

// Stop releases the crew one last time to exit and joins every worker.
func (c *Crew) Stop(t *machine.Thread) {
	c.done = true
	c.bar.Arrive(t)
	t.JoinAll(c.ws)
}
