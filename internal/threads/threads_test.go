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

func TestFutureValue(t *testing.T) {
	onMTA(t, func(th *machine.Thread) {
		f := Spawn(th, "f", func(c *machine.Thread) int64 {
			c.Compute(500)
			return 123
		})
		if v := f.Force(th); v != 123 {
			t.Errorf("Force = %d, want 123", v)
		}
		// Forcing again still works (variable remains full).
		if v := f.Force(th); v != 123 {
			t.Errorf("second Force = %d, want 123", v)
		}
	})
}

func TestFutureForcesBlockUntilReady(t *testing.T) {
	onMTA(t, func(th *machine.Thread) {
		f := Spawn(th, "slow", func(c *machine.Thread) int64 {
			c.Compute(10_000)
			return 1
		})
		start := th.NowCycles()
		f.Force(th)
		if th.NowCycles() <= start {
			t.Error("Force returned without waiting for the future")
		}
	})
}

func TestReduceSum(t *testing.T) {
	// Sum 1..100 via 8 chunks.
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	onMTA(t, func(th *machine.Thread) {
		got := Reduce(th, "sum", len(vals), 8, 0,
			func(c *machine.Thread, lo, hi int) int64 {
				var s int64
				for i := lo; i < hi; i++ {
					s += vals[i]
				}
				return s
			},
			func(a, b int64) int64 { return a + b })
		if got != 5050 {
			t.Errorf("Reduce = %d, want 5050", got)
		}
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
		f := Spawn(th, "f", func(c *machine.Thread) int64 { return 5 })
		total += int(f.Force(th))
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 64+5 {
		t.Errorf("total = %d, want 69", total)
	}
}

// Property: Reduce equals the sequential fold for random inputs, chunk
// counts and associative/commutative combine (here: sum and max).
func TestPropertyReduceEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		vals := make([]int64, n)
		var wantSum, wantMax int64
		wantMax = -1 << 62
		for i := range vals {
			vals[i] = int64(rng.Intn(1000) - 500)
			wantSum += vals[i]
			if vals[i] > wantMax {
				wantMax = vals[i]
			}
		}
		if n == 0 {
			wantMax = -1 << 62
		}
		chunks := 1 + rng.Intn(16)
		var gotSum, gotMax int64
		e := mta.New(mta.Params{Procs: 1})
		_, err := e.Run("main", func(th *machine.Thread) {
			gotSum = Reduce(th, "sum", n, chunks, 0,
				func(c *machine.Thread, lo, hi int) int64 {
					var s int64
					for i := lo; i < hi; i++ {
						s += vals[i]
					}
					return s
				},
				func(a, b int64) int64 { return a + b })
			gotMax = Reduce(th, "max", n, chunks, -1<<62,
				func(c *machine.Thread, lo, hi int) int64 {
					m := int64(-1 << 62)
					for i := lo; i < hi; i++ {
						if vals[i] > m {
							m = vals[i]
						}
					}
					return m
				},
				func(a, b int64) int64 {
					if a > b {
						return a
					}
					return b
				})
		})
		if err != nil {
			return false
		}
		return gotSum == wantSum && gotMax == wantMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
