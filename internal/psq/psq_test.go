package psq

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const tol = 1e-6

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// runServe runs n clients, each requesting works[i] at start times starts[i],
// and returns each client's completion time.
func runServe(t *testing.T, rate, cap float64, starts, works []float64) []float64 {
	t.Helper()
	k := sim.NewKernel()
	q := New(k, "test", rate, cap)
	done := make([]float64, len(works))
	for i := range works {
		i := i
		k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			p.SleepUntil(starts[i])
			q.Serve(p, works[i])
			done[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return done
}

func TestSingleClientUncapped(t *testing.T) {
	done := runServe(t, 2.0, 0, []float64{0}, []float64{10})
	if !almostEqual(done[0], 5) {
		t.Errorf("completion = %v, want 5", done[0])
	}
}

func TestSingleClientCapped(t *testing.T) {
	// Cap 1/21 with rate 1: a lone client takes 21 cycles per unit —
	// the MTA single-stream issue model.
	done := runServe(t, 1.0, 1.0/21, []float64{0}, []float64{100})
	if !almostEqual(done[0], 2100) {
		t.Errorf("completion = %v, want 2100", done[0])
	}
}

func TestEqualShareTwoClients(t *testing.T) {
	done := runServe(t, 1.0, 0, []float64{0, 0}, []float64{10, 10})
	for i, d := range done {
		if !almostEqual(d, 20) {
			t.Errorf("client %d completion = %v, want 20", i, d)
		}
	}
}

func TestUnequalWorksProcessorSharing(t *testing.T) {
	// Two clients, works 10 and 30, rate 1. Both served at rate 1/2 until the
	// short one finishes at t=20; the long one then runs alone:
	// remaining 20 at rate 1 → finishes at t=40.
	done := runServe(t, 1.0, 0, []float64{0, 0}, []float64{10, 30})
	if !almostEqual(done[0], 20) {
		t.Errorf("short job completion = %v, want 20", done[0])
	}
	if !almostEqual(done[1], 40) {
		t.Errorf("long job completion = %v, want 40", done[1])
	}
}

func TestCapPreventsSpeedupWhenAlone(t *testing.T) {
	// With cap c and few clients, each runs at c regardless of spare capacity.
	// 3 clients, rate 1, cap 1/21: each gets 1/21, finishing at 21*W.
	done := runServe(t, 1.0, 1.0/21, []float64{0, 0, 0}, []float64{10, 10, 10})
	for i, d := range done {
		if !almostEqual(d, 210) {
			t.Errorf("client %d completion = %v, want 210", i, d)
		}
	}
}

func TestSaturationWithManyCappedClients(t *testing.T) {
	// 42 clients, rate 1, cap 1/21: per-client rate = 1/42 (sharing binds).
	// Each work 10 → completion 420. Total throughput = rate (saturated).
	n := 42
	starts := make([]float64, n)
	works := make([]float64, n)
	for i := range works {
		works[i] = 10
	}
	done := runServe(t, 1.0, 1.0/21, starts, works)
	for i, d := range done {
		if !almostEqual(d, 420) {
			t.Errorf("client %d completion = %v, want 420", i, d)
		}
	}
}

func TestStaggeredArrivals(t *testing.T) {
	// Client A (work 10) starts at 0 alone; client B (work 10) arrives at 4.
	// A: rate 1 for t<4 (4 units done), then 1/2. A needs 6 more → done at 16.
	// B: rate 1/2 from 4 to 16 (6 units), then alone at rate 1 → done at 20.
	done := runServe(t, 1.0, 0, []float64{0, 4}, []float64{10, 10})
	if !almostEqual(done[0], 16) {
		t.Errorf("A completion = %v, want 16", done[0])
	}
	if !almostEqual(done[1], 20) {
		t.Errorf("B completion = %v, want 20", done[1])
	}
}

func TestZeroWorkReturnsImmediately(t *testing.T) {
	done := runServe(t, 1.0, 0, []float64{5}, []float64{0})
	if done[0] != 5 {
		t.Errorf("completion = %v, want 5 (no service)", done[0])
	}
}

func TestUtilizationSingleCappedStream(t *testing.T) {
	// One capped stream: utilization should be cap/rate ≈ 4.8% — the paper's
	// "roughly 5% processor utilization" for single-threaded MTA code.
	k := sim.NewKernel()
	q := New(k, "issue", 1.0, 1.0/21)
	k.Spawn("stream", func(p *sim.Proc) {
		q.Serve(p, 100)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	u := q.Utilization()
	if math.Abs(u-1.0/21) > 1e-9 {
		t.Errorf("utilization = %v, want %v", u, 1.0/21)
	}
}

func TestStatsCounters(t *testing.T) {
	k := sim.NewKernel()
	q := New(k, "s", 1.0, 0)
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			q.Serve(p, 5)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if q.Served() != 15 {
		t.Errorf("Served = %v, want 15", q.Served())
	}
	if q.Arrivals() != 3 {
		t.Errorf("Arrivals = %v, want 3", q.Arrivals())
	}
	if q.MaxActive() != 3 {
		t.Errorf("MaxActive = %v, want 3", q.MaxActive())
	}
	if q.Active() != 0 {
		t.Errorf("Active = %v, want 0 after drain", q.Active())
	}
}

func TestNewPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with rate 0 did not panic")
		}
	}()
	New(sim.NewKernel(), "bad", 0, 0)
}

// Property: work conservation. For any batch of jobs arriving at time 0 with
// no cap, the makespan equals totalWork/rate exactly (PS is work-conserving),
// and every job's completion time is at least work_i/rate.
func TestPropertyWorkConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		works := make([]float64, n)
		starts := make([]float64, n)
		var total float64
		for i := range works {
			works[i] = 1 + rng.Float64()*100
			total += works[i]
		}
		rate := 0.5 + rng.Float64()*4
		done := runServe(t, rate, 0, starts, works)
		makespan := 0.0
		for i, d := range done {
			if d < works[i]/rate-tol {
				return false // finished faster than dedicated service
			}
			if d > makespan {
				makespan = d
			}
		}
		return almostEqual(makespan, total/rate)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: cap enforcement. No job may ever complete before work/cap cycles
// have elapsed since its arrival, for any arrival pattern.
func TestPropertyCapEnforcement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		works := make([]float64, n)
		starts := make([]float64, n)
		for i := range works {
			works[i] = 1 + rng.Float64()*50
			starts[i] = rng.Float64() * 20
		}
		cap := 0.05 + rng.Float64()*0.5
		done := runServe(t, 2.0, cap, starts, works)
		for i, d := range done {
			if d < starts[i]+works[i]/cap-tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: monotonicity — admitted later with the same work means finishing
// no earlier, when all works are equal (FIFO-like fairness of PS with equal
// demands).
func TestPropertyEqualWorkOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		works := make([]float64, n)
		starts := make([]float64, n)
		for i := range works {
			works[i] = 25
			starts[i] = float64(i) * rng.Float64() * 5
		}
		done := runServe(t, 1.0, 0, starts, works)
		for i := 1; i < n; i++ {
			if starts[i] >= starts[i-1] && done[i] < done[i-1]-tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLongRunNumericalStability(t *testing.T) {
	// Repeated service through the same queue must not accumulate drift:
	// 10k sequential serves of work 21 at cap 1/21 should take 21*21*10k.
	k := sim.NewKernel()
	q := New(k, "issue", 1.0, 1.0/21)
	var end float64
	k.Spawn("stream", func(p *sim.Proc) {
		for i := 0; i < 10000; i++ {
			q.Serve(p, 21)
		}
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 21.0 * 21 * 10000
	if math.Abs(end-want)/want > 1e-9 {
		t.Errorf("end = %v, want %v", end, want)
	}
}

// TestEqualTargetWakeOrder pins the order in which jobs with equal targets
// complete. The job heap has no tiebreak, so this order is whatever its
// sift sequence gives; a FIFO tiebreak or a different heap would change it,
// and with it the order procs resume in and so every Record.
func TestEqualTargetWakeOrder(t *testing.T) {
	k := sim.NewKernel()
	q := New(k, "pin", 1.0, 0)
	var order []string
	for i := 0; i < 8; i++ {
		k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			q.Serve(p, 5)
			order = append(order, fmt.Sprintf("%s@%g", p.Name(), p.Now()))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "c0@40 c7@40 c6@40 c5@40 c4@40 c3@40 c2@40 c1@40"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("wake order = %q, want %q", got, want)
	}
}

// TestServeAllocsDoNotGrow shows that Serve allocates nothing in steady
// state: a run with twice the Serve calls allocates no more, for a capped
// queue (MTA issue logic) and an uncapped one (an SMP bus).
func TestServeAllocsDoNotGrow(t *testing.T) {
	for _, tc := range []struct {
		name string
		cap  float64
	}{{"capped", 1.0 / 21}, {"uncapped", 0}} {
		run := func(n int) {
			k := sim.NewKernel()
			q := New(k, "pin", 1.0, tc.cap)
			for c := 0; c < 8; c++ {
				k.Spawn("c", func(p *sim.Proc) {
					for i := 0; i < n; i++ {
						q.Serve(p, 3)
					}
				})
			}
			if err := k.Run(); err != nil {
				t.Error(err)
			}
		}
		const n = 500
		a1 := testing.AllocsPerRun(5, func() { run(n) })
		a2 := testing.AllocsPerRun(5, func() { run(2 * n) })
		if a2 > a1 {
			t.Errorf("%s: %v allocations for %d Serve calls per client, %v for %d; want no growth",
				tc.name, a1, n, a2, 2*n)
		}
	}
}
