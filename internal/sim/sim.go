// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel owns a virtual clock measured in machine cycles and an event
// queue ordered by (time, insertion sequence), so simulations are exactly
// reproducible. Simulated threads of control ("procs") are runtime
// coroutines built with iter.Pull: the kernel resumes a proc by calling its
// next function, and the proc hands control back by calling yield, so only
// one of them ever runs and a switch never passes through the Go scheduler.
// Procs advance the clock only by calling Sleep, or by parking on a WaitQ
// until another proc (or a kernel callback) wakes them.
//
// Events are values in a typed heap, and wake-ups due at the current time
// wait in a FIFO beside it: scheduling a wake-up or re-arming a Timer
// allocates nothing, and a cancelled Timer leaves the heap at once.
//
// The kernel detects deadlock (live procs but no pending events) and reports
// it as an error rather than hanging. Shutdown stops every proc that has not
// finished, unwinding its stack, so no goroutines leak even after an error.
package sim

import (
	"fmt"
	"iter"
	"sort"
	"strings"
)

// Time is virtual time in cycles. Fractional cycles are permitted; they
// arise from fluid resource models (see package psq).
type Time = float64

// procState tracks where a proc is in its lifecycle.
type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateSleeping
	stateParked
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateRunnable:
		return "runnable"
	case stateRunning:
		return "running"
	case stateSleeping:
		return "sleeping"
	case stateParked:
		return "parked"
	case stateDone:
		return "done"
	}
	return "unknown"
}

// event is a scheduled occurrence: either resuming a proc or firing a
// Timer's kernel-side callback (which must not block).
type event struct {
	t   Time
	seq uint64
	p   *Proc  // non-nil: resume this proc
	tm  *Timer // non-nil: fire this timer
}

// before orders events by time, then by scheduling sequence.
func (e *event) before(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of event values. It keeps each queued
// Timer's index current so the timer can be moved or removed in place.
type eventHeap []event

// set stores e at position i.
func (h eventHeap) set(i int, e event) {
	h[i] = e
	if e.tm != nil {
		e.tm.index = i
	}
}

func (h eventHeap) up(j int) {
	e := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !e.before(&h[i]) {
			break
		}
		h.set(j, h[i])
		j = i
	}
	h.set(j, e)
}

// down sifts position i0 toward the leaves of h[:n] and reports whether it
// moved.
func (h eventHeap) down(i0, n int) bool {
	e := h[i0]
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].before(&h[j]) {
			j = r
		}
		if !h[j].before(&e) {
			break
		}
		h.set(i, h[j])
		i = j
	}
	h.set(i, e)
	return i > i0
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// remove takes out the event at position i and returns it.
func (h *eventHeap) remove(i int) event {
	old := *h
	n := len(old) - 1
	e := old[i]
	if i != n {
		old.set(i, old[n])
		if !old.down(i, n) {
			old.up(i)
		}
	}
	old[n] = event{}
	*h = old[:n]
	if e.tm != nil {
		e.tm.index = -1
	}
	return e
}

// Kernel is a discrete-event simulation engine. Create one with NewKernel,
// spawn procs, then call Run. A Kernel must not be reused after Run returns.
type Kernel struct {
	now    Time
	events eventHeap
	ready  []event // proc wake-ups due now, in sequence order (see pop)
	head   int     // ready[head:] are pending
	seq    uint64
	live   int // procs spawned and not yet done

	running bool // inside Run
	closed  bool
	trap    interface{} // panic value captured from a proc

	procs []*Proc // all spawned procs, for diagnostics and shutdown
}

// NewKernel returns an empty kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time in cycles.
func (k *Kernel) Now() Time { return k.now }

// nextSeq returns a fresh FIFO tiebreak sequence number.
func (k *Kernel) nextSeq() uint64 {
	k.seq++
	return k.seq
}

// wake schedules p to resume at time t (clamped to now).
func (k *Kernel) wake(t Time, p *Proc) {
	e := event{t: t, seq: k.nextSeq(), p: p}
	if t <= k.now {
		e.t = k.now
		k.ready = append(k.ready, e)
		return
	}
	k.events.push(e)
}

// pop removes the earliest pending event by (time, sequence). A wake-up
// due now bypasses the heap: it was queued at the current time, so it
// orders after every heap event for this time queued before it and before
// every later one, and the ready list keeps sequence order on its own.
func (k *Kernel) pop() (event, bool) {
	if k.head < len(k.ready) {
		r := k.ready[k.head]
		if len(k.events) == 0 || !k.events[0].before(&r) {
			k.ready[k.head] = event{}
			if k.head++; k.head == len(k.ready) {
				k.ready, k.head = k.ready[:0], 0
			}
			return r, true
		}
	}
	if len(k.events) == 0 {
		return event{}, false
	}
	return k.events.remove(0), true
}

// Timer is a kernel callback that can be armed, re-armed and cancelled.
// At and After return an armed one; NewTimer an idle one.
type Timer struct {
	k     *Kernel
	fn    func()
	index int // position in the event heap; -1 when not armed
}

// NewTimer returns a timer that runs fn kernel-side each time it fires. It
// is not armed; arm it with Reset.
func (k *Kernel) NewTimer(fn func()) *Timer {
	return &Timer{k: k, fn: fn, index: -1}
}

// Reset arms the timer to fire once at absolute time t (clamped to now),
// replacing any pending firing. It takes a fresh sequence number, so it
// orders exactly as cancelling the timer and scheduling a new one would.
func (tm *Timer) Reset(t Time) {
	k := tm.k
	if t < k.now {
		t = k.now
	}
	if tm.index < 0 {
		k.events.push(event{t: t, seq: k.nextSeq(), tm: tm})
		return
	}
	e := &k.events[tm.index]
	e.t, e.seq = t, k.nextSeq()
	if !k.events.down(tm.index, len(k.events)) {
		k.events.up(tm.index)
	}
}

// Cancel prevents the timer's pending callback from running and removes it
// from the event queue. Safe to call more than once, and safe to call after
// the callback has fired.
func (tm *Timer) Cancel() {
	if tm != nil && tm.index >= 0 {
		tm.k.events.remove(tm.index)
	}
}

// At schedules fn to run kernel-side at absolute time t (clamped to now).
// fn must not block; it may schedule further events and wake procs.
func (k *Kernel) At(t Time, fn func()) *Timer {
	tm := k.NewTimer(fn)
	tm.Reset(t)
	return tm
}

// After schedules fn to run kernel-side d cycles from now.
func (k *Kernel) After(d Time, fn func()) *Timer {
	return k.At(k.now+d, fn)
}

// Proc is a simulated thread of control. Procs may only call their methods
// from inside their own body function.
type Proc struct {
	k     *Kernel
	name  string
	id    int
	state procState

	next  func() (struct{}, bool) // kernel side: run the proc until it blocks
	stop  func()                  // kernel side: unwind a blocked or unstarted proc
	yield func(struct{}) bool     // proc side: block; false once stopped

	// Set while parked; deadlock() joins them into the park reason, so a
	// park builds no string.
	wq  *WaitQ
	why string
}

// killPanic is the sentinel used to unwind a stopped proc's stack.
type killPanic struct{}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// ID returns the proc's spawn-ordered identifier.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Spawn creates a proc that will begin executing fn at the current virtual
// time (after already-scheduled events at this time). It may be called
// before Run or from inside a running proc or kernel callback.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	if k.closed {
		panic("sim: Spawn on closed kernel")
	}
	p := &Proc{k: k, name: name, id: len(k.procs), state: stateRunnable}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killPanic); !ok && k.trap == nil {
					// Run re-panics on its caller's goroutine after shutdown.
					k.trap = fmt.Sprintf("sim: proc %q panicked: %v", p.name, r)
				}
			}
			p.exit()
		}()
		fn(p)
	})
	k.procs = append(k.procs, p)
	k.live++
	k.wake(k.now, p)
	return p
}

// exit marks p finished. It runs once the body returns or unwinds, and
// from shutdown for a proc stopped before it ever ran.
func (p *Proc) exit() {
	if p.state != stateDone {
		p.state = stateDone
		p.k.live--
	}
}

// block hands control back to the kernel until it resumes p. If the kernel
// stops p instead, block unwinds p's stack.
func (p *Proc) block() {
	if !p.yield(struct{}{}) {
		panic(killPanic{})
	}
}

// Sleep advances the proc's local time by d cycles (d < 0 is treated as 0).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.k.now + d)
}

// SleepUntil advances the proc's local time to absolute time t (if in the
// future).
func (p *Proc) SleepUntil(t Time) {
	p.k.wake(t, p)
	p.state = stateSleeping
	p.block()
}

// unpark schedules p to resume at the current time. It is the caller's
// responsibility to ensure p is actually parked.
func (k *Kernel) unpark(p *Proc) {
	if p.state != stateParked {
		panic(fmt.Sprintf("sim: unpark of proc %q in state %v", p.name, p.state))
	}
	p.state = stateRunnable
	p.wq = nil
	k.wake(k.now, p)
}

// DeadlockError reports that live procs remain but no events are pending.
type DeadlockError struct {
	Time    Time
	Blocked []string // "name (reason)" for each stuck proc
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%.1f: %d procs blocked: %s",
		e.Time, len(e.Blocked), strings.Join(e.Blocked, ", "))
}

// Run executes events until none remain and all procs have finished. It
// returns a *DeadlockError if procs remain blocked with no pending events.
// In all cases every proc goroutine has exited by the time Run returns.
func (k *Kernel) Run() error {
	if k.running || k.closed {
		panic("sim: Run called twice")
	}
	k.running = true
	var err error
	for k.trap == nil {
		e, ok := k.pop()
		if !ok {
			if k.live > 0 {
				err = k.deadlock()
			}
			break
		}
		if e.t > k.now {
			k.now = e.t
		}
		if e.tm != nil {
			e.tm.fn()
			continue
		}
		p := e.p
		if p.state == stateDone {
			continue // stale wake of a finished proc
		}
		p.state = stateRunning
		p.next()
	}
	k.shutdown()
	if k.trap != nil {
		panic(k.trap)
	}
	return err
}

// deadlock builds the diagnostic error for stuck procs.
func (k *Kernel) deadlock() error {
	var blocked []string
	for _, p := range k.procs {
		if p.state == stateDone {
			continue
		}
		why := p.state.String()
		if p.wq != nil {
			why = p.wq.name + ": " + p.why
		}
		blocked = append(blocked, fmt.Sprintf("%s (%s)", p.name, why))
	}
	sort.Strings(blocked)
	return &DeadlockError{Time: k.now, Blocked: blocked}
}

// shutdown stops every proc that has not finished: a blocked proc unwinds
// from its yield, and one that never ran exits without running its body.
func (k *Kernel) shutdown() {
	k.closed = true
	for _, p := range k.procs {
		if p.state != stateDone {
			p.stop()
			p.exit()
		}
	}
}

// WaitQ is a FIFO queue of parked procs, the building block for locks,
// condition variables, full/empty cells and resource queues.
type WaitQ struct {
	name string
	q    []*Proc
}

// NewWaitQ returns an empty wait queue with a diagnostic name.
func NewWaitQ(name string) *WaitQ { return &WaitQ{name: name} }

// Len reports how many procs are parked on the queue.
func (w *WaitQ) Len() int { return len(w.q) }

// Wait parks p at the tail of the queue until woken. reason augments
// deadlock diagnostics.
func (w *WaitQ) Wait(p *Proc, reason string) {
	w.q = append(w.q, p)
	p.state = stateParked
	p.wq, p.why = w, reason
	p.block()
}

// WakeOne resumes the proc at the head of the queue, if any, and reports
// whether one was woken. The proc resumes at the current virtual time.
func (w *WaitQ) WakeOne(k *Kernel) bool {
	if len(w.q) == 0 {
		return false
	}
	p := w.q[0]
	copy(w.q, w.q[1:])
	w.q[len(w.q)-1] = nil
	w.q = w.q[:len(w.q)-1]
	k.unpark(p)
	return true
}

// WakeAll resumes every parked proc in FIFO order and returns the count.
func (w *WaitQ) WakeAll(k *Kernel) int {
	n := len(w.q)
	for i, p := range w.q {
		k.unpark(p)
		w.q[i] = nil
	}
	w.q = w.q[:0]
	return n
}
