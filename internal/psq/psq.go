// Package psq implements a capped processor-sharing (PS) resource for
// discrete-event simulation.
//
// A Queue models a server with a total service rate R (work units per cycle)
// shared equally among all currently active clients, with an optional
// per-client rate cap c. At any instant with n active clients each client
// receives service at rate min(c, R/n). This single abstraction models:
//
//   - a Tera MTA processor's instruction issue logic: R = 1 instruction per
//     cycle shared by up to 128 streams, with c = 1/21 because a stream can
//     have only one instruction in the 21-stage pipeline — one stream alone
//     achieves about 5% utilization, ≥21 compute-bound streams saturate;
//   - a shared SMP memory bus: R = bytes per cycle, no per-client cap;
//   - time-shared conventional processors: R = instructions per cycle
//     divided among the threads scheduled on the processor.
//
// The implementation is an exact event-driven fluid simulation using
// virtual-service accounting: because all active clients receive the same
// instantaneous rate, each job completes when the cumulative equal-share
// service S(t) reaches the job's admission value of S plus its work.
package psq

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/sim"
)

// completion slack: jobs within this much work of their target complete
// together, absorbing float rounding in long simulations.
const eps = 1e-7

// job is one client's outstanding service request. Finished jobs, with
// their wait queues, are kept for reuse by later Serve calls.
type job struct {
	wq     *sim.WaitQ // parks exactly one proc
	target float64    // S value at which the job completes
	work   float64
}

// jobHeap orders jobs by target through container/heap. Equal targets
// have no tiebreak: their order, and so the order their procs wake in, is
// whatever container/heap's sift sequence leaves. Changing the heap changes
// Records.
type jobHeap []*job

func (h jobHeap) Len() int           { return len(h) }
func (h jobHeap) Less(i, j int) bool { return h[i].target < h[j].target }
func (h jobHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)        { *h = append(*h, x.(*job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// Queue is a capped processor-sharing resource. Create with New; use Serve
// from simulated procs.
type Queue struct {
	k    *sim.Kernel
	name string
	rate float64 // total work units per cycle
	cap  float64 // per-client units per cycle; <=0 means uncapped

	jobs  jobHeap
	free  []*job  // finished jobs, for reuse
	s     float64 // cumulative per-client (equal-share) service
	lastT sim.Time
	timer *sim.Timer // the next completion; re-armed in place

	served   float64 // total work completed
	busy     float64 // integral of actual service rate over time
	arrivals int64   // total Serve calls
	maxQ     int     // high-water mark of concurrent clients
}

// New creates a PS queue on kernel k. rate is the total service rate in work
// units per cycle and must be positive. perClientCap limits each client's
// rate; pass 0 for no cap.
func New(k *sim.Kernel, name string, rate, perClientCap float64) *Queue {
	if rate <= 0 {
		panic(fmt.Sprintf("psq %s: rate must be positive, got %g", name, rate))
	}
	q := &Queue{k: k, name: name, rate: rate, cap: perClientCap}
	q.timer = k.NewTimer(q.complete)
	return q
}

// Name returns the queue's diagnostic name.
func (q *Queue) Name() string { return q.name }

// currentRate returns the instantaneous per-client service rate.
func (q *Queue) currentRate() float64 {
	n := len(q.jobs)
	if n == 0 {
		return 0
	}
	r := q.rate / float64(n)
	if q.cap > 0 && r > q.cap {
		r = q.cap
	}
	return r
}

// advance integrates service up to the present.
func (q *Queue) advance() {
	now := q.k.Now()
	if now > q.lastT {
		r := q.currentRate()
		q.s += r * (now - q.lastT)
		q.busy += r * float64(len(q.jobs)) * (now - q.lastT)
	}
	q.lastT = now
}

// resched moves the completion timer to the head job's completion.
func (q *Queue) resched() {
	if len(q.jobs) == 0 {
		q.timer.Cancel()
		return
	}
	r := q.currentRate()
	dt := (q.jobs[0].target - q.s) / r
	if dt < 0 {
		dt = 0
	}
	q.timer.Reset(q.k.Now() + dt)
}

// tol is the completion tolerance. It must scale with the magnitude of the
// virtual-service accumulator: in long simulations s reaches 1e10+, where a
// float64 ULP exceeds any fixed epsilon, and a completion event could
// otherwise fire without ever reaching its target (a zero-time livelock).
func (q *Queue) tol() float64 {
	return eps + 8e-15*math.Abs(q.s)
}

// complete finishes all jobs whose targets have been reached.
func (q *Queue) complete() {
	q.advance()
	popped := false
	for len(q.jobs) > 0 && q.jobs[0].target <= q.s+q.tol() {
		j := heap.Pop(&q.jobs).(*job)
		q.served += j.work
		j.wq.WakeOne(q.k)
		popped = true
	}
	// Livelock guard: if the head job's remaining service is below the
	// clock's float64 resolution, the rescheduled event would fire at the
	// same instant without advancing s. Finish the job now — the residual is
	// smaller than one representable cycle.
	if !popped && len(q.jobs) > 0 {
		if r := q.currentRate(); r > 0 {
			dt := (q.jobs[0].target - q.s) / r
			if now := q.k.Now(); now+dt <= now {
				j := heap.Pop(&q.jobs).(*job)
				q.s = j.target
				q.served += j.work
				j.wq.WakeOne(q.k)
			}
		}
	}
	q.resched()
}

// Serve blocks p until the resource has delivered work units of service to
// it, sharing capacity with all concurrently served clients. Zero or
// negative work returns immediately.
func (q *Queue) Serve(p *sim.Proc, work float64) {
	if work <= 0 {
		return
	}
	q.advance()
	var j *job
	if n := len(q.free); n > 0 {
		j = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		j = &job{wq: sim.NewWaitQ(q.name)}
	}
	j.target, j.work = q.s+work, work
	heap.Push(&q.jobs, j)
	q.arrivals++
	if len(q.jobs) > q.maxQ {
		q.maxQ = len(q.jobs)
	}
	q.resched()
	j.wq.Wait(p, "awaiting service")
	q.free = append(q.free, j)
}

// Active reports the number of clients currently in service.
func (q *Queue) Active() int { return len(q.jobs) }

// Served returns the total work completed so far.
func (q *Queue) Served() float64 { return q.served }

// Arrivals returns the total number of Serve calls admitted.
func (q *Queue) Arrivals() int64 { return q.arrivals }

// MaxActive returns the high-water mark of concurrent clients.
func (q *Queue) MaxActive() int { return q.maxQ }

// Utilization returns the fraction of the server's capacity used over the
// interval [0, now]. It forces an advance to the present first.
func (q *Queue) Utilization() float64 {
	q.advance()
	now := q.k.Now()
	if now <= 0 {
		return 0
	}
	return q.busy / (q.rate * now)
}
