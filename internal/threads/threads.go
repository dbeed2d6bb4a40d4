// Package threads is the structured multithreaded programming layer the
// benchmark programs are written against — the reproduction's counterpart of
// the programming systems used in the paper: the Caltech Sthreads library on
// Windows NT, the Exemplar shared-memory pragmas, and the Tera
// parallelization pragmas and futures.
//
// ParChunks is the paper's Program 2 pattern: a "#pragma multithreaded"
// outer loop over chunk subranges. Future is the Tera future construct:
// explicit thread creation with a full/empty synchronization variable
// carrying the result. Program 4's dynamic work queue ("while (unprocessed
// threats) { threat = next unprocessed threat; … }") lives with its only
// user, Terrain Masking's coarse and hybrid variants, which spawn every
// worker and give each one a private temp array even when workers outnumber
// threats.
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

// Future is an explicit thread whose int64 result is delivered through a
// full/empty synchronization variable — the Tera futures construct.
type Future struct {
	th *machine.Thread
	sv *machine.SyncVar
}

// Spawn starts fn on a new thread; its return value fills the future.
func Spawn(t *machine.Thread, name string, fn func(*machine.Thread) int64) *Future {
	f := &Future{sv: t.NewSyncVar("future " + name)}
	f.th = t.Go(name, func(th *machine.Thread) {
		f.sv.Write(th, fn(th))
	})
	return f
}

// Force blocks until the future's value is available and returns it. Forcing
// more than once is allowed (the variable stays full).
func (f *Future) Force(t *machine.Thread) int64 {
	v := f.sv.ReadFF(t)
	t.Join(f.th) // the thread has written its result; reap it
	return v
}

// Reduce runs body(lo,hi) over chunked subranges in parallel and combines
// the per-chunk int64 results with combine, returning the total. combine
// must be associative and commutative.
func Reduce(t *machine.Thread, name string, n, chunks int, init int64,
	body func(c *machine.Thread, lo, hi int) int64,
	combine func(a, b int64) int64) int64 {
	if chunks < 1 {
		panic("threads: Reduce with no chunks: " + name)
	}
	futures := make([]*Future, chunks)
	for c := 0; c < chunks; c++ {
		lo, hi := ChunkBounds(n, chunks, c)
		futures[c] = Spawn(t, fmt.Sprintf("%s[%d]", name, c), func(th *machine.Thread) int64 {
			return body(th, lo, hi)
		})
	}
	acc := init
	for _, f := range futures {
		acc = combine(acc, f.Force(t))
	}
	return acc
}
