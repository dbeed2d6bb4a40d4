package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// checkGoroutines waits briefly for the goroutine count to fall back to
// base and fails the test if it does not: every proc's coroutine must be
// gone once Run returns.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Run, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkAllDone fails the test unless every spawned proc is marked done and
// the kernel counts none live.
func checkAllDone(t *testing.T, k *Kernel) {
	t.Helper()
	for _, p := range k.procs {
		if p.state != stateDone {
			t.Errorf("proc %s is %v after Run, want done", p.name, p.state)
		}
	}
	if k.live != 0 {
		t.Errorf("live = %d after Run, want 0", k.live)
	}
}

func TestNoGoroutinesAfterNormalRun(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	q := NewWaitQ("q")
	for i := 0; i < 8; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i))
			q.Wait(p, "round")
		})
	}
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(100)
		q.WakeAll(p.Kernel())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	checkAllDone(t, k)
	checkGoroutines(t, base)
}

func TestNoGoroutinesAfterDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	q := NewWaitQ("never")
	unwound := 0
	for i := 0; i < 8; i++ {
		k.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(Time(i))
			q.Wait(p, "forever")
			t.Errorf("%s resumed after deadlock", p.Name())
		})
	}
	if _, ok := k.Run().(*DeadlockError); !ok {
		t.Fatal("want a DeadlockError")
	}
	if unwound != 8 {
		t.Errorf("%d of 8 parked procs unwound their stacks", unwound)
	}
	checkAllDone(t, k)
	checkGoroutines(t, base)
}

func TestNoGoroutinesAfterProcPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	q := NewWaitQ("q")
	lateRan := false
	k.Spawn("sleeper", func(p *Proc) { p.Sleep(1000) })
	k.Spawn("parked", func(p *Proc) { q.Wait(p, "never") })
	var late *Proc
	k.Spawn("boom", func(p *Proc) {
		p.Sleep(1)
		// Spawned but never started: its start event is still queued when
		// the panic ends the run, so shutdown stops it before its first
		// resume.
		late = p.Kernel().Spawn("late", func(*Proc) { lateRan = true })
		panic("bad model")
	})
	func() {
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, `proc "boom" panicked: bad model`) {
				t.Errorf("Run panicked with %v, want the boom proc's panic", r)
			}
		}()
		_ = k.Run()
		t.Error("Run returned, want a panic")
	}()
	if lateRan {
		t.Error("a proc stopped before its first resume ran its body")
	}
	if late == nil || late.state != stateDone {
		t.Error("a proc stopped before its first resume is not marked done")
	}
	checkAllDone(t, k)
	checkGoroutines(t, base)
}

// timerScript drives a seeded random mix of At, Cancel, re-arm and Sleep
// from several procs and kernel callbacks, with integer delays so that many
// firings tie on time. rearm moves a timer to time at and returns the handle
// to keep. It returns the log of firings and wake-ups.
func timerScript(t *testing.T, seed int64, rearm func(k *Kernel, tm *Timer, at Time, fn func()) *Timer) []string {
	t.Helper()
	k := NewKernel()
	rng := rand.New(rand.NewSource(seed))
	var log []string
	timers := make([]*Timer, 16)
	fire := make([]func(), len(timers))
	for i := range timers {
		fire[i] = func() {
			log = append(log, fmt.Sprintf("t%d@%g", i, k.Now()))
			if rng.Intn(4) == 0 {
				// A callback re-arms another timer from kernel side.
				j := rng.Intn(len(timers))
				if timers[j] != nil {
					timers[j] = rearm(k, timers[j], k.Now()+Time(rng.Intn(3)), fire[j])
				}
			}
		}
	}
	for w := 0; w < 4; w++ {
		k.Spawn(fmt.Sprintf("p%d", w), func(p *Proc) {
			for step := 0; step < 200; step++ {
				i := rng.Intn(len(timers))
				at := p.Now() + Time(rng.Intn(4))
				switch rng.Intn(4) {
				case 0:
					timers[i].Cancel()
					timers[i] = k.At(at, fire[i])
				case 1:
					timers[i].Cancel()
				case 2:
					if timers[i] != nil {
						timers[i] = rearm(k, timers[i], at, fire[i])
					}
				case 3:
					p.Sleep(Time(rng.Intn(3)))
					log = append(log, fmt.Sprintf("%s@%g", p.Name(), p.Now()))
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return log
}

func TestTimerResetOrdersLikeCancelAndReschedule(t *testing.T) {
	reset := func(_ *Kernel, tm *Timer, at Time, _ func()) *Timer {
		tm.Reset(at)
		return tm
	}
	reschedule := func(k *Kernel, tm *Timer, at Time, fn func()) *Timer {
		tm.Cancel()
		return k.At(at, fn)
	}
	for seed := int64(1); seed <= 20; seed++ {
		got := timerScript(t, seed, reset)
		want := timerScript(t, seed, reschedule)
		if len(got) < 100 {
			t.Fatalf("seed %d: only %d firings; the script exercises too little", seed, len(got))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %s with re-arm, %s with cancel-and-reschedule", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d firings with re-arm, %d with cancel-and-reschedule", seed, len(got), len(want))
		}
	}
}

// TestEventsFireInTimeThenSequenceOrder checks the kernel's ordering
// discipline against its definition: events fire in nondecreasing time, and
// events for the same time fire in the order they were scheduled. A seeded
// random mix of Sleep, park/wake, timer re-arm and Cancel from procs and
// callbacks exercises the heap, the ready list and their interleaving at
// equal times. Each firing is logged with the sequence number its
// scheduling call took (the kernel's next one at the time of the call).
func TestEventsFireInTimeThenSequenceOrder(t *testing.T) {
	type firing struct {
		t   Time
		seq uint64
	}
	for seed := int64(1); seed <= 20; seed++ {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		var log []firing
		queues := make([]*WaitQ, 4)
		woken := make([]uint64, len(queues)) // seq of the wake-up queued for proc i
		wake := func(i int) {
			if queues[i].Len() > 0 {
				woken[i] = k.seq + 1
				queues[i].WakeOne(k)
			}
		}
		timers := make([]*Timer, 8)
		armed := make([]uint64, len(timers))
		arm := func(i int, at Time) {
			armed[i] = k.seq + 1
			timers[i].Reset(at)
		}
		for i := range timers {
			timers[i] = k.NewTimer(func() {
				log = append(log, firing{k.Now(), armed[i]})
				if i < len(queues) {
					wake(i) // the parked proc's own alarm
				} else if rng.Intn(2) == 0 {
					wake(rng.Intn(len(queues)))
				}
				if rng.Intn(4) == 0 {
					arm(rng.Intn(len(timers)), k.Now()+Time(rng.Intn(2)))
				}
			})
		}
		for w := range queues {
			queues[w] = NewWaitQ(fmt.Sprintf("q%d", w))
			spawned := k.seq + 1
			k.Spawn(fmt.Sprintf("p%d", w), func(p *Proc) {
				log = append(log, firing{p.Now(), spawned})
				for step := 0; step < 150; step++ {
					switch rng.Intn(5) {
					case 0:
						seq := k.seq + 1
						p.SleepUntil(p.Now() + Time(rng.Intn(3)))
						log = append(log, firing{p.Now(), seq})
					case 1:
						arm(rng.Intn(len(timers)), p.Now()+Time(rng.Intn(3)))
					case 2:
						// Alarms (timers 0-3) are moved but never cancelled.
						timers[len(queues)+rng.Intn(len(timers)-len(queues))].Cancel()
					case 3:
						wake(rng.Intn(len(queues)))
					case 4:
						arm(w, p.Now()+Time(rng.Intn(3)))
						queues[w].Wait(p, "turn")
						log = append(log, firing{p.Now(), woken[w]})
					}
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(log) < 300 {
			t.Fatalf("seed %d: only %d firings; the script exercises too little", seed, len(log))
		}
		for i := 1; i < len(log); i++ {
			a, b := log[i-1], log[i]
			if b.t < a.t || (b.t == a.t && b.seq <= a.seq) {
				t.Fatalf("seed %d: firing %d (t=%g, seq %d) follows (t=%g, seq %d)", seed, i, b.t, b.seq, a.t, a.seq)
			}
		}
	}
}

func TestCancelRemovesTimerFromQueue(t *testing.T) {
	k := NewKernel()
	var tms []*Timer
	for i := 0; i < 10; i++ {
		tms = append(tms, k.At(Time(i), func() { t.Error("cancelled timer fired") }))
	}
	for _, tm := range tms {
		tm.Cancel()
	}
	if len(k.events) != 0 {
		t.Errorf("%d events queued after cancelling every timer, want 0", len(k.events))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewTimerIdleUntilReset(t *testing.T) {
	k := NewKernel()
	var fired []Time
	tm := k.NewTimer(func() { fired = append(fired, k.Now()) })
	k.Spawn("p", func(p *Proc) {
		p.Sleep(5)
		tm.Reset(p.Now() + 3) // fires at 8
		p.Sleep(10)
		tm.Reset(p.Now() - 1) // in the past: fires now, at 15
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 8 || fired[1] != 15 {
		t.Errorf("fired = %v, want [8 15]", fired)
	}
}

// checkFlatAllocs fails unless a run with 2n operations allocates no more
// than one with n: the per-operation cost is zero in steady state.
func checkFlatAllocs(t *testing.T, what string, n int, run func(n int)) {
	t.Helper()
	a1 := testing.AllocsPerRun(5, func() { run(n) })
	a2 := testing.AllocsPerRun(5, func() { run(2 * n) })
	if a2 > a1 {
		t.Errorf("%s: %v allocations for %d, %v for %d; want no growth", what, a1, n, a2, 2*n)
	}
}

func TestSleepAllocsDoNotGrow(t *testing.T) {
	checkFlatAllocs(t, "Sleep", 1000, func(n int) {
		k := NewKernel()
		for w := 0; w < 4; w++ {
			k.Spawn("p", func(p *Proc) {
				for i := 0; i < n; i++ {
					p.Sleep(1)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Error(err)
		}
	})
}

func TestWaitQAllocsDoNotGrow(t *testing.T) {
	checkFlatAllocs(t, "WaitQ park/wake", 1000, func(n int) {
		k := NewKernel()
		q := NewWaitQ("pin")
		k.Spawn("waiter", func(p *Proc) {
			for i := 0; i < n; i++ {
				q.Wait(p, "turn")
			}
		})
		k.Spawn("waker", func(p *Proc) {
			for i := 0; i < n; i++ {
				for !q.WakeOne(p.Kernel()) {
					p.Sleep(1)
				}
				p.Sleep(1)
			}
		})
		if err := k.Run(); err != nil {
			t.Error(err)
		}
	})
}
