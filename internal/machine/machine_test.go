package machine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// unitModel charges one cycle per op/ref/touch and admits threads
// round-robin across procs — a trivial model for engine tests.
type unitModel struct {
	e     *Engine
	next  int
	admit int64
}

func (m *unitModel) Init(e *Engine)                { m.e = e }
func (m *unitModel) Compute(t *Thread, ops int64)  { t.P.Sleep(float64(ops)) }
func (m *unitModel) Memory(t *Thread, b mem.Burst) { t.P.Sleep(float64(b.N)) }
func (m *unitModel) SyncTouch(t *Thread)           { t.P.Sleep(1) }
func (m *unitModel) AtomicTouch(t *Thread)         { t.P.Sleep(1) }
func (m *unitModel) LockTouch(t *Thread)           { t.P.Sleep(1) }
func (m *unitModel) BarrierTouch(t *Thread)        { t.P.Sleep(1) }
func (m *unitModel) SpawnCost(parent *Thread)      { parent.P.Sleep(10) }
func (m *unitModel) Admit(t *Thread) {
	t.Proc = m.next % m.e.Config().Procs
	m.next++
	m.admit++
}
func (m *unitModel) Release(t *Thread) {}
func (m *unitModel) Finish(st *Stats)  { st.MemUtil = 0.5 }

func newTestEngine(procs int) *Engine {
	return New(Config{Name: "unit", ClockHz: 1e6, Procs: procs}, &unitModel{})
}

func TestRunComputesSeconds(t *testing.T) {
	e := newTestEngine(1)
	res, err := e.Run("main", func(th *Thread) {
		th.Compute(500)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != 500 {
		t.Errorf("cycles = %v, want 500", res.Stats.Cycles)
	}
	if res.Seconds != 500/1e6 {
		t.Errorf("seconds = %v, want %v", res.Seconds, 500/1e6)
	}
	if res.Stats.Ops != 500 {
		t.Errorf("ops = %v, want 500", res.Stats.Ops)
	}
	if res.Stats.MemUtil != 0.5 {
		t.Errorf("Finish hook not applied: MemUtil = %v", res.Stats.MemUtil)
	}
}

func TestComputeZeroOrNegativeFree(t *testing.T) {
	e := newTestEngine(1)
	res, err := e.Run("main", func(th *Thread) {
		th.Compute(0)
		th.Compute(-5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != 0 || res.Stats.Ops != 0 {
		t.Errorf("cycles=%v ops=%v, want 0,0", res.Stats.Cycles, res.Stats.Ops)
	}
}

func TestGoJoin(t *testing.T) {
	e := newTestEngine(2)
	var childTime float64
	res, err := e.Run("main", func(th *Thread) {
		c := th.Go("child", func(c *Thread) {
			c.Compute(100)
			childTime = c.NowCycles()
		})
		th.Join(c)
		if th.NowCycles() < childTime {
			t.Error("join returned before child finished")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Spawns != 2 { // main + child
		t.Errorf("spawns = %d, want 2", res.Stats.Spawns)
	}
	if res.Stats.MaxLive != 2 {
		t.Errorf("maxLive = %d, want 2", res.Stats.MaxLive)
	}
}

func TestJoinAlreadyFinished(t *testing.T) {
	e := newTestEngine(1)
	_, err := e.Run("main", func(th *Thread) {
		c := th.Go("quick", func(c *Thread) {})
		th.Compute(1000) // child finishes long before
		th.Join(c)       // must not block forever
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJoinAll(t *testing.T) {
	e := newTestEngine(4)
	_, err := e.Run("main", func(th *Thread) {
		var ts []*Thread
		for i := 0; i < 5; i++ {
			i := i
			ts = append(ts, th.Go(fmt.Sprintf("c%d", i), func(c *Thread) {
				c.Compute(int64(10 * (i + 1)))
			}))
		}
		th.JoinAll(ts)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinProcAssignment(t *testing.T) {
	e := newTestEngine(3)
	var procs []int
	_, err := e.Run("main", func(th *Thread) {
		var ts []*Thread
		for i := 0; i < 6; i++ {
			ts = append(ts, th.Go("c", func(c *Thread) {
				procs = append(procs, c.Proc)
			}))
		}
		th.JoinAll(ts)
	})
	if err != nil {
		t.Fatal(err)
	}
	// main took proc 0; children take 1,2,0,1,2,0
	want := []int{1, 2, 0, 1, 2, 0}
	for i := range want {
		if procs[i] != want[i] {
			t.Errorf("procs = %v, want %v", procs, want)
			break
		}
	}
}

func TestLockMutualExclusion(t *testing.T) {
	e := newTestEngine(4)
	inside := 0
	maxInside := 0
	_, err := e.Run("main", func(th *Thread) {
		l := th.NewLock("m")
		var ts []*Thread
		for i := 0; i < 8; i++ {
			ts = append(ts, th.Go("worker", func(c *Thread) {
				l.Lock(c)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				c.Compute(50) // hold the lock across simulated time
				inside--
				l.Unlock(c)
			}))
		}
		th.JoinAll(ts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Errorf("maxInside = %d, want 1 (mutual exclusion violated)", maxInside)
	}
}

func TestUnlockUnheldPanics(t *testing.T) {
	e := newTestEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("Unlock of unheld lock did not panic")
		}
	}()
	e.Run("main", func(th *Thread) {
		l := th.NewLock("m")
		l.Unlock(th)
	})
}

func TestSyncVarProducerConsumer(t *testing.T) {
	e := newTestEngine(2)
	var got []int64
	_, err := e.Run("main", func(th *Thread) {
		v := th.NewSyncVar("cell")
		consumer := th.Go("consumer", func(c *Thread) {
			for i := 0; i < 5; i++ {
				got = append(got, v.ReadFE(c))
			}
		})
		for i := int64(0); i < 5; i++ {
			v.WriteEF(th, i*i) // blocks until consumer empties the cell
		}
		th.Join(consumer)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g != int64(i*i) {
			t.Errorf("got[%d] = %d, want %d", i, g, i*i)
		}
	}
}

func TestSyncVarReadFFDoesNotEmpty(t *testing.T) {
	e := newTestEngine(2)
	_, err := e.Run("main", func(th *Thread) {
		v := th.NewSyncVar("cell")
		v.Write(th, 42)
		if x := v.ReadFF(th); x != 42 {
			t.Errorf("ReadFF = %d, want 42", x)
		}
		if !v.Full() {
			t.Error("ReadFF emptied the cell")
		}
		if x := v.ReadFE(th); x != 42 {
			t.Errorf("ReadFE = %d, want 42", x)
		}
		if v.Full() {
			t.Error("ReadFE left the cell full")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSyncVarBlockingRead(t *testing.T) {
	e := newTestEngine(2)
	_, err := e.Run("main", func(th *Thread) {
		v := th.NewSyncVar("cell")
		reader := th.Go("reader", func(c *Thread) {
			x := v.ReadFF(c)
			if x != 7 {
				t.Errorf("ReadFF = %d, want 7", x)
			}
			if c.NowCycles() < 100 {
				t.Errorf("read returned at %v, before write at 100", c.NowCycles())
			}
		})
		th.Compute(100)
		v.Write(th, 7)
		th.Join(reader)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSyncVarReset(t *testing.T) {
	e := newTestEngine(1)
	_, err := e.Run("main", func(th *Thread) {
		v := th.NewSyncVar("cell")
		v.Write(th, 1)
		v.Reset(th)
		if v.Full() {
			t.Error("Reset left the cell full")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSyncVarDeadlockDetected(t *testing.T) {
	e := newTestEngine(1)
	_, err := e.Run("main", func(th *Thread) {
		v := th.NewSyncVar("never-filled")
		v.ReadFF(th)
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestCounterAtomicity(t *testing.T) {
	e := newTestEngine(4)
	const workers, each = 8, 25
	seen := map[int64]bool{}
	_, err := e.Run("main", func(th *Thread) {
		ctr := th.NewCounter("n", 0)
		var ts []*Thread
		for i := 0; i < workers; i++ {
			ts = append(ts, th.Go("w", func(c *Thread) {
				for j := 0; j < each; j++ {
					v := ctr.Next(c)
					if seen[v] {
						t.Errorf("duplicate counter value %d", v)
					}
					seen[v] = true
				}
			}))
		}
		th.JoinAll(ts)
		if ctr.Value() != workers*each {
			t.Errorf("final = %d, want %d", ctr.Value(), workers*each)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != workers*each {
		t.Errorf("distinct values = %d, want %d", len(seen), workers*each)
	}
}

func TestCounterAdd(t *testing.T) {
	e := newTestEngine(1)
	_, err := e.Run("main", func(th *Thread) {
		ctr := th.NewCounter("n", 10)
		if v := ctr.Add(th, 5); v != 10 {
			t.Errorf("Add returned %d, want previous value 10", v)
		}
		if ctr.Value() != 15 {
			t.Errorf("Value = %d, want 15", ctr.Value())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	e := newTestEngine(4)
	var releaseTimes []float64
	_, err := e.Run("main", func(th *Thread) {
		b := th.NewBarrier("b", 4)
		var ts []*Thread
		for i := 0; i < 4; i++ {
			i := i
			ts = append(ts, th.Go("w", func(c *Thread) {
				c.Compute(int64(10 * (i + 1))) // staggered arrival
				b.Arrive(c)
				releaseTimes = append(releaseTimes, c.NowCycles())
			}))
		}
		th.JoinAll(ts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(releaseTimes) != 4 {
		t.Fatalf("releases = %d, want 4", len(releaseTimes))
	}
	for _, rt := range releaseTimes {
		if rt != releaseTimes[0] {
			t.Errorf("staggered release times %v, want all equal", releaseTimes)
			break
		}
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	e := newTestEngine(2)
	count := 0
	_, err := e.Run("main", func(th *Thread) {
		b := th.NewBarrier("b", 2)
		w := th.Go("w", func(c *Thread) {
			for i := 0; i < 3; i++ {
				b.Arrive(c)
				count++
			}
		})
		for i := 0; i < 3; i++ {
			b.Arrive(th)
		}
		th.Join(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

func TestStatsCounting(t *testing.T) {
	e := newTestEngine(2)
	res, err := e.Run("main", func(th *Thread) {
		r := th.Alloc("a", 1024)
		th.Burst(mem.ReadBurst(r, 0, 8, 100))
		th.Read(r, 0, 8)
		th.Write(r, 8, 8)
		l := th.NewLock("l")
		l.Lock(th)
		l.Unlock(th)
		v := th.NewSyncVar("v")
		v.Write(th, 1)
		ctr := th.NewCounter("c", 0)
		ctr.Next(th)
		b := th.NewBarrier("b", 1)
		b.Arrive(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.MemRefs != 102 {
		t.Errorf("MemRefs = %d, want 102", st.MemRefs)
	}
	if st.LockOps != 2 {
		t.Errorf("LockOps = %d, want 2", st.LockOps)
	}
	if st.SyncOps != 1 {
		t.Errorf("SyncOps = %d, want 1", st.SyncOps)
	}
	if st.AtomicOps != 1 {
		t.Errorf("AtomicOps = %d, want 1", st.AtomicOps)
	}
	if st.BarrierOps != 1 {
		t.Errorf("BarrierOps = %d, want 1", st.BarrierOps)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "noprocs", ClockHz: 1e6, Procs: 0},
		{Name: "noclock", ClockHz: 0, Procs: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg, &unitModel{})
		}()
	}
}

func TestCounterBarrierNamesThreadedIntoTrace(t *testing.T) {
	// NewCounter and NewBarrier must not drop their name argument: the name
	// is kept on the primitive and recorded as a SyncAlloc timeline event,
	// matching the named WaitQs of NewLock/NewSyncVar.
	e := newTestEngine(1)
	log := trace.New(1e6)
	e.SetTracer(log)
	if _, err := e.Run("main", func(th *Thread) {
		c := th.NewCounter("claims", 0)
		if c.Name() != "claims" {
			t.Errorf("counter name = %q, want claims", c.Name())
		}
		b := th.NewBarrier("phase", 1)
		if b.Name() != "phase" {
			t.Errorf("barrier name = %q, want phase", b.Name())
		}
		c.Next(th)
		b.Arrive(th)
	}); err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, ev := range log.Events {
		if ev.Kind == trace.SyncAlloc {
			labels[ev.Label] = true
		}
	}
	for _, want := range []string{"counter claims", "barrier phase"} {
		if !labels[want] {
			t.Errorf("trace log missing SyncAlloc %q (events: %v)", want, labels)
		}
	}
}

func TestSyncAllocDoesNotDisturbGantt(t *testing.T) {
	// SyncAlloc events are log-only: span pairing and the Gantt chart must
	// render exactly as if they were absent.
	e := newTestEngine(1)
	log := trace.New(1e6)
	e.SetTracer(log)
	if _, err := e.Run("main", func(th *Thread) {
		th.NewCounter("c", 0)
		th.Compute(10)
	}); err != nil {
		t.Fatal(err)
	}
	out := log.Gantt(40, 8)
	if strings.Contains(out, "counter") {
		t.Errorf("Gantt rendered the SyncAlloc event:\n%s", out)
	}
	if !strings.Contains(out, "main") {
		t.Errorf("Gantt lost the thread row:\n%s", out)
	}
}

// burstLog is unitModel recording every burst it is charged.
type burstLog struct {
	unitModel
	bursts []mem.Burst
}

func (m *burstLog) Memory(t *Thread, b mem.Burst) {
	m.bursts = append(m.bursts, b)
	m.unitModel.Memory(t, b)
}

func TestBurstWrapped(t *testing.T) {
	// A 100-byte region holds (100-8)/16+1 = 6 references of 8 bytes at a
	// 16-byte stride, so n splits into ⌈n/6⌉ bursts from offset zero.
	const size, stride, elem, per = 100, 16, 8, 6
	for _, n := range []int{-3, 0, 1, per, per + 1, 3*per + 2} {
		model := &burstLog{}
		e := New(Config{Name: "unit", ClockHz: 1e6, Procs: 1}, model)
		var r *mem.Region
		res, err := e.Run("main", func(th *Thread) {
			r = th.Alloc("r", size)
			th.BurstWrapped(r, stride, elem, n, true, true)
		})
		if err != nil {
			t.Fatal(err)
		}
		want := max(n, 0)
		if res.Stats.MemRefs != int64(want) {
			t.Errorf("n=%d: MemRefs = %d, want %d", n, res.Stats.MemRefs, want)
		}
		if wantBursts := (want + per - 1) / per; len(model.bursts) != wantBursts {
			t.Errorf("n=%d: %d bursts, want %d", n, len(model.bursts), wantBursts)
		}
		total := 0
		for i, b := range model.bursts {
			total += b.N
			if b.Region != r || b.Offset != 0 || b.Stride != stride || b.Elem != elem || !b.Write || !b.Dep {
				t.Errorf("n=%d: burst %d = %+v, want %d-byte refs %d apart from offset 0 of r, write and dep", n, i, b, elem, stride)
			}
			if b.Span() > r.Size {
				t.Errorf("n=%d: burst %d spans %d bytes of a %d-byte region", n, i, b.Span(), r.Size)
			}
			if b.N < 1 || b.N > per || (i < len(model.bursts)-1 && b.N != per) {
				t.Errorf("n=%d: burst %d has %d refs; every burst but the last should be a full pass of %d", n, i, b.N, per)
			}
		}
		if total != want {
			t.Errorf("n=%d: bursts carry %d refs, want %d", n, total, want)
		}
	}
}
