package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
}

func TestSingleProcSleep(t *testing.T) {
	k := NewKernel()
	var at []Time
	k.Spawn("p", func(p *Proc) {
		at = append(at, p.Now())
		p.Sleep(10)
		at = append(at, p.Now())
		p.Sleep(5.5)
		at = append(at, p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 10, 15.5}
	if len(at) != len(want) {
		t.Fatalf("got %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("at[%d] = %v, want %v", i, at[i], want[i])
		}
	}
}

func TestSleepNegativeClampsToZero(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		p.Sleep(-3)
		if p.Now() != 0 {
			t.Errorf("Now() = %v after Sleep(-3), want 0", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSleepUntilPast(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		p.Sleep(10)
		p.SleepUntil(5) // in the past: no-op in time
		if p.Now() != 10 {
			t.Errorf("Now() = %v, want 10", p.Now())
		}
		p.SleepUntil(20)
		if p.Now() != 20 {
			t.Errorf("Now() = %v, want 20", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOOrderAtSameTime(t *testing.T) {
	k := NewKernel()
	var order []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("p%d", i)
		k.Spawn(name, func(p *Proc) {
			order = append(order, p.Name())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "p0 p1 p2 p3 p4"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var trace []string
		for i := 0; i < 4; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(i + 1))
					trace = append(trace, fmt.Sprintf("%s@%g", p.Name(), p.Now()))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a := run()
	b := run()
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("nondeterministic interleaving:\n%v\n%v", a, b)
	}
}

func TestKernelCallbacks(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.After(5, func() { fired = append(fired, k.Now()) })
	k.At(2, func() { fired = append(fired, k.Now()) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 5 {
		t.Errorf("fired = %v, want [2 5]", fired)
	}
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.After(5, func() { fired = true })
	tm.Cancel()
	tm.Cancel() // double-cancel is safe
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled timer fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	k := NewKernel()
	n := 0
	var tm *Timer
	tm = k.After(1, func() { n++ })
	k.After(2, func() { tm.Cancel() }) // cancel after it fired
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("callback ran %d times, want 1", n)
	}
}

func TestWaitQWakeOne(t *testing.T) {
	k := NewKernel()
	q := NewWaitQ("test")
	var order []string
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			q.Wait(p, "waiting")
			order = append(order, p.Name()+fmt.Sprintf("@%g", p.Now()))
		})
	}
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(10)
		q.WakeOne(p.Kernel())
		p.Sleep(10)
		q.WakeOne(p.Kernel())
		p.Sleep(10)
		q.WakeOne(p.Kernel())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "w0@10 w1@20 w2@30"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order = %q, want %q", got, want)
	}
}

func TestWaitQWakeAll(t *testing.T) {
	k := NewKernel()
	q := NewWaitQ("test")
	woken := 0
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			q.Wait(p, "barrier")
			woken++
		})
	}
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(7)
		if n := q.WakeAll(p.Kernel()); n != 4 {
			t.Errorf("WakeAll = %d, want 4", n)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 4 {
		t.Errorf("woken = %d, want 4", woken)
	}
	if q.Len() != 0 {
		t.Errorf("queue not drained: %d", q.Len())
	}
}

func TestWakeOneEmptyQueue(t *testing.T) {
	k := NewKernel()
	q := NewWaitQ("empty")
	if q.WakeOne(k) {
		t.Error("WakeOne on empty queue returned true")
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	q := NewWaitQ("nobody-wakes-this")
	k.Spawn("stuck", func(p *Proc) {
		q.Wait(p, "forever")
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || !strings.Contains(de.Blocked[0], "stuck") {
		t.Errorf("Blocked = %v, want [stuck (...)]", de.Blocked)
	}
	// Park reasons are joined only when a deadlock is reported; the message
	// must still name the wait queue and the reason given to Wait.
	if !strings.Contains(de.Error(), "stuck (nobody-wakes-this: forever)") {
		t.Errorf("error message %q missing wait queue and park reason", de.Error())
	}
}

func TestDeadlockPartial(t *testing.T) {
	// One proc completes, one deadlocks; kernel must report only the stuck one
	// and still terminate cleanly.
	k := NewKernel()
	q := NewWaitQ("q")
	k.Spawn("finishes", func(p *Proc) { p.Sleep(100) })
	k.Spawn("stuck", func(p *Proc) { q.Wait(p, "never") })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if de.Time != 100 {
		t.Errorf("deadlock time = %v, want 100", de.Time)
	}
	if len(de.Blocked) != 1 {
		t.Errorf("Blocked = %v, want exactly one", de.Blocked)
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel()
	var events []string
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(5)
		p.Kernel().Spawn("child", func(c *Proc) {
			events = append(events, fmt.Sprintf("child@%g", c.Now()))
			c.Sleep(3)
			events = append(events, fmt.Sprintf("child-done@%g", c.Now()))
		})
		events = append(events, fmt.Sprintf("parent@%g", p.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Parent continues before the child's start event is processed.
	want := "parent@5 child@5 child-done@8"
	if got := strings.Join(events, " "); got != want {
		t.Errorf("events = %q, want %q", got, want)
	}
}

func TestManyProcsStress(t *testing.T) {
	k := NewKernel()
	const n = 500
	total := 0
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(Time(1 + i%7))
			}
			total++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Errorf("total = %d, want %d", total, n)
	}
}

func TestProcIDsSequential(t *testing.T) {
	k := NewKernel()
	p0 := k.Spawn("a", func(p *Proc) {})
	p1 := k.Spawn("b", func(p *Proc) {})
	if p0.ID() != 0 || p1.ID() != 1 {
		t.Errorf("IDs = %d,%d want 0,1", p0.ID(), p1.ID())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventHeapRandomOrder(t *testing.T) {
	// Events inserted in random time order must fire in time order.
	k := NewKernel()
	rng := rand.New(rand.NewSource(42))
	var fired []Time
	times := make([]Time, 100)
	for i := range times {
		times[i] = Time(rng.Intn(1000))
	}
	for _, tt := range times {
		tt := tt
		k.At(tt, func() { fired = append(fired, tt) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events out of order: %v then %v", fired[i-1], fired[i])
		}
	}
}

func TestShutdownKillsSleepers(t *testing.T) {
	// A proc sleeping when deadlock is declared elsewhere should be killed
	// without running further.
	k := NewKernel()
	q := NewWaitQ("q")
	ran := false
	k.Spawn("stuck", func(p *Proc) { q.Wait(p, "never") })
	k.Spawn("sleeper", func(p *Proc) {
		q.Wait(p, "also never")
		ran = true
	})
	if err := k.Run(); err == nil {
		t.Fatal("want deadlock error")
	}
	if ran {
		t.Error("killed proc continued running")
	}
}
