package threads

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/mta"
	"repro/internal/smp"
)

// onMTA runs fn inside a single-processor MTA simulation.
func onMTA(t *testing.T, fn func(*machine.Thread)) machine.Result {
	t.Helper()
	e := mta.New(mta.Params{Procs: 1})
	res, err := e.Run("main", fn)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChunkBoundsPartition(t *testing.T) {
	// Exhaustive small cases: the chunks exactly tile [0, n).
	for n := 0; n <= 50; n++ {
		for chunks := 1; chunks <= 12; chunks++ {
			covered := 0
			prevHi := 0
			for c := 0; c < chunks; c++ {
				lo, hi := ChunkBounds(n, chunks, c)
				if lo != prevHi {
					t.Fatalf("n=%d chunks=%d c=%d: lo=%d, want %d", n, chunks, c, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("n=%d chunks=%d c=%d: hi %d < lo %d", n, chunks, c, hi, lo)
				}
				covered += hi - lo
				prevHi = hi
			}
			if prevHi != n || covered != n {
				t.Fatalf("n=%d chunks=%d: covered %d, end %d", n, chunks, covered, prevHi)
			}
		}
	}
}

func TestPropertyChunkBoundsBalanced(t *testing.T) {
	// Chunk sizes differ by at most one.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10000)
		chunks := 1 + rng.Intn(300)
		minSz, maxSz := n+1, -1
		for c := 0; c < chunks; c++ {
			lo, hi := ChunkBounds(n, chunks, c)
			sz := hi - lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		return maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestParChunksCoversAll(t *testing.T) {
	const n = 100
	hit := make([]int, n)
	onMTA(t, func(th *machine.Thread) {
		ParChunks(th, "loop", n, 7, func(c *machine.Thread, chunk, lo, hi int) {
			for i := lo; i < hi; i++ {
				hit[i]++
			}
		})
	})
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("item %d visited %d times", i, h)
		}
	}
}

func TestParChunksMoreChunksThanItems(t *testing.T) {
	const n = 3
	hit := make([]int, n)
	onMTA(t, func(th *machine.Thread) {
		ParChunks(th, "loop", n, 10, func(c *machine.Thread, chunk, lo, hi int) {
			for i := lo; i < hi; i++ {
				hit[i]++
			}
		})
	})
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("item %d visited %d times", i, h)
		}
	}
}

func TestParChunksPanicsOnZeroChunks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero chunks")
		}
	}()
	e := mta.New(mta.Params{Procs: 1})
	e.Run("main", func(th *machine.Thread) {
		ParChunks(th, "bad", 10, 0, func(*machine.Thread, int, int, int) {})
	})
}

// claimOK runs Claim over n items on a one-processor MTA and reports
// whether every index of [0, n) ran exactly once with min(⌈n/grain⌉,
// threadsN) threads, each ending on one failed claim; a crowd of at most one
// thread must run on the caller with no spawn and no atomic op.
func claimOK(t *testing.T, n, grain, threadsN int) bool {
	t.Helper()
	hit := make([]int, n)
	onCaller := 0
	res := onMTA(t, func(th *machine.Thread) {
		Claim(th, "claim", n, grain, threadsN, func(c *machine.Thread, lo, hi int) {
			if c == th {
				onCaller++
			}
			for i := lo; i < hi; i++ {
				hit[i]++
			}
		})
	})
	for _, h := range hit {
		if h != 1 {
			return false
		}
	}
	st := res.Stats
	spans := (n + grain - 1) / grain
	if nth := min(spans, threadsN); nth > 1 {
		return onCaller == 0 && st.Spawns == int64(1+nth) && st.AtomicOps == int64(spans+nth)
	}
	return onCaller == 1 && st.Spawns == 1 && st.AtomicOps == 0
}

func TestPropertyClaimCoversEachIndexOnce(t *testing.T) {
	// No items, one span, one thread, two spans, a crowd capped by threadsN.
	for _, c := range [][3]int{{0, 1, 8}, {8, 8, 8}, {100, 1, 1}, {9, 8, 8}, {100, 8, 4}} {
		if !claimOK(t, c[0], c[1], c[2]) {
			t.Errorf("Claim n=%d grain=%d threadsN=%d", c[0], c[1], c[2])
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return claimOK(t, rng.Intn(200), 1+rng.Intn(10), 1+rng.Intn(20))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

type span struct{ lo, hi int }

func TestCrewRoundsRunChunkShares(t *testing.T) {
	const workers = 4
	rounds := []int{10, 0, 3, 7, 4, 1} // an empty round, and rounds with fewer items than workers
	got := make([][workers]span, len(rounds))
	calls, r := 0, 0
	owner := make([]*machine.Thread, workers)
	res := onMTA(t, func(th *machine.Thread) {
		crew := NewCrew(th, "crew", workers, func(wt *machine.Thread, w, lo, hi int) {
			if wt == th || (owner[w] != nil && owner[w] != wt) {
				t.Errorf("worker %d ran on thread %s", w, wt.Name())
			}
			owner[w] = wt
			got[r][w] = span{lo, hi}
			calls++
		})
		for r = range rounds {
			crew.Round(th, rounds[r])
		}
		crew.Stop(th)
	})
	wantCalls := 0
	for r, n := range rounds {
		for w := 0; w < workers; w++ {
			want := span{}
			if lo, hi := ChunkBounds(n, workers, w); lo < hi {
				want = span{lo, hi}
				wantCalls++
			}
			if got[r][w] != want {
				t.Errorf("round %d (n=%d): worker %d ran %v, want %v", r, n, w, got[r][w], want)
			}
		}
	}
	if calls != wantCalls {
		t.Errorf("%d shares ran, want %d: empty shares must be skipped", calls, wantCalls)
	}
	if want := int64(1 + workers); res.Stats.Spawns != want {
		t.Errorf("%d spawns, want %d", res.Stats.Spawns, want)
	}
	// Every party arrives twice per round and once more at Stop.
	if want := int64((workers + 1) * (2*len(rounds) + 1)); res.Stats.BarrierOps != want {
		t.Errorf("%d barrier arrivals, want %d", res.Stats.BarrierOps, want)
	}
}

func TestCrewPanicsOnZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero workers")
		}
	}()
	e := mta.New(mta.Params{Procs: 1})
	e.Run("main", func(th *machine.Thread) {
		NewCrew(th, "bad", 0, func(*machine.Thread, int, int, int) {})
	})
}

func TestConstructsWorkOnSMPToo(t *testing.T) {
	// The same source runs on a conventional machine (the portability claim).
	e := smp.New(smp.Exemplar(4))
	total := 0
	_, err := e.Run("main", func(th *machine.Thread) {
		ParChunks(th, "loop", 64, 4, func(c *machine.Thread, chunk, lo, hi int) {
			total += hi - lo
		})
		Claim(th, "claim", 32, 3, 4, func(c *machine.Thread, lo, hi int) {
			total += hi - lo
		})
		crew := NewCrew(th, "crew", 4, func(wt *machine.Thread, w, lo, hi int) {
			total += hi - lo
		})
		crew.Round(th, 5)
		crew.Round(th, 2)
		crew.Stop(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 64+32+5+2 {
		t.Errorf("total = %d, want 103", total)
	}
}
