package cache

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func newTestSpace(size uint64) (*mem.Space, *mem.Region) {
	s := mem.NewSpace()
	return s, s.Alloc("data", size)
}

func TestColdStreamMissesPerLine(t *testing.T) {
	// Sequential 8-byte reads over 4KB with 32-byte lines: 4096/32 = 128
	// line misses, rest hits.
	c := New(64*1024, 32, 1024)
	_, r := newTestSpace(4096)
	hits, misses := c.AccessBurst(mem.ReadBurst(r, 0, 8, 512))
	if misses != 128 {
		t.Errorf("misses = %d, want 128", misses)
	}
	if hits != 512-128 {
		t.Errorf("hits = %d, want %d", hits, 512-128)
	}
}

func TestWarmReuseHitsWhenFits(t *testing.T) {
	c := New(64*1024, 32, 1024)
	_, r := newTestSpace(16 * 1024)
	c.AccessBurst(mem.ReadBurst(r, 0, 8, 2048)) // warm
	hits, misses := c.AccessBurst(mem.ReadBurst(r, 0, 8, 2048))
	if misses != 0 {
		t.Errorf("second pass misses = %d, want 0 (fits in cache)", misses)
	}
	if hits != 2048 {
		t.Errorf("second pass hits = %d, want 2048", hits)
	}
}

func TestStreamingLargerThanCacheNeverHitsAcrossPasses(t *testing.T) {
	// Region 4x the cache: a second full pass must miss again (LRU evicted
	// everything).
	c := New(16*1024, 32, 1024)
	_, r := newTestSpace(64 * 1024)
	n := 64 * 1024 / 8
	_, m1 := c.AccessBurst(mem.ReadBurst(r, 0, 8, n))
	_, m2 := c.AccessBurst(mem.ReadBurst(r, 0, 8, n))
	if m1 != int64(64*1024/32) {
		t.Errorf("first pass misses = %d, want %d", m1, 64*1024/32)
	}
	if m2 != m1 {
		t.Errorf("second pass misses = %d, want %d (no reuse when streaming)", m2, m1)
	}
}

func TestSingleAccessHitMiss(t *testing.T) {
	c := New(8*1024, 32, 1024)
	_, r := newTestSpace(1024)
	if c.Access(r.Addr(0)) {
		t.Error("cold access hit")
	}
	if !c.Access(r.Addr(512)) {
		t.Error("same-granule access missed")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("counters = %d/%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestZeroStrideBurst(t *testing.T) {
	c := New(8*1024, 32, 1024)
	_, r := newTestSpace(1024)
	hits, misses := c.AccessBurst(mem.Burst{Region: r, Offset: 0, Stride: 0, Elem: 8, N: 100})
	if misses != 1 || hits != 99 {
		t.Errorf("= %d hits %d misses, want 99/1", hits, misses)
	}
	hits, misses = c.AccessBurst(mem.Burst{Region: r, Offset: 0, Stride: 0, Elem: 8, N: 100})
	if misses != 0 || hits != 100 {
		t.Errorf("warm = %d hits %d misses, want 100/0", hits, misses)
	}
}

func TestWideStrideEveryRefMisses(t *testing.T) {
	// Stride 2KB > granule 1KB: every reference hits a distinct cold granule.
	c := New(256*1024, 32, 1024)
	_, r := newTestSpace(128 * 1024)
	hits, misses := c.AccessBurst(mem.Burst{Region: r, Offset: 0, Stride: 2048, Elem: 8, N: 60})
	if misses != 60 || hits != 0 {
		t.Errorf("= %d hits %d misses, want 0/60", hits, misses)
	}
}

func TestEmptyBurst(t *testing.T) {
	c := New(8*1024, 32, 1024)
	_, r := newTestSpace(64)
	hits, misses := c.AccessBurst(mem.Burst{Region: r, N: 0})
	if hits != 0 || misses != 0 {
		t.Errorf("empty burst = %d/%d", hits, misses)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Capacity 2 granules. Touch g0, g1, then g2 evicts g0 (LRU), so g1
	// still hits and g0 misses.
	c := New(2*1024, 32, 1024)
	_, r := newTestSpace(8 * 1024)
	c.Access(r.Addr(0))        // g0
	c.Access(r.Addr(1024))     // g1
	c.Access(r.Addr(2 * 1024)) // g2, evicts g0
	if !c.Access(r.Addr(1024)) {
		t.Error("g1 should still be resident")
	}
	if c.Access(r.Addr(0)) {
		t.Error("g0 should have been evicted")
	}
}

func TestLRUTouchRefreshes(t *testing.T) {
	c := New(2*1024, 32, 1024)
	_, r := newTestSpace(8 * 1024)
	c.Access(r.Addr(0))        // g0
	c.Access(r.Addr(1024))     // g1
	c.Access(r.Addr(0))        // refresh g0
	c.Access(r.Addr(2 * 1024)) // evicts g1 (now LRU)
	if !c.Access(r.Addr(0)) {
		t.Error("refreshed g0 was evicted")
	}
	if c.Access(r.Addr(1024)) {
		t.Error("g1 should have been evicted")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, bad := range []struct{ size, line, granule uint64 }{
		{1024, 0, 512},
		{1024, 32, 0},
		{1024, 48, 1024}, // granule not multiple of line
		{100, 32, 1024},  // smaller than one granule
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d,%d) did not panic", bad.size, bad.line, bad.granule)
				}
			}()
			New(bad.size, bad.line, bad.granule)
		}()
	}
}

// Property: hits+misses always equals the burst reference count, and misses
// never exceeds references.
func TestPropertyConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(uint64(1+rng.Intn(64))*1024, 32, 1024)
		_, r := newTestSpace(1 << 20)
		for iter := 0; iter < 20; iter++ {
			n := rng.Intn(500)
			stride := uint64(rng.Intn(100))
			maxOff := uint64(1<<20) - 1
			var span uint64
			if n > 0 {
				span = uint64(n-1)*stride + 8
			}
			if span >= maxOff {
				continue
			}
			off := uint64(rng.Intn(int(maxOff - span)))
			b := mem.Burst{Region: r, Offset: off, Stride: stride, Elem: 8, N: n}
			hits, misses := c.AccessBurst(b)
			if hits+misses != int64(n) || misses < 0 || hits < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: immediately repeating a burst that fits within the cache yields
// zero misses on the repeat.
func TestPropertyRepeatFittingBurstHits(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(64*1024, 32, 1024)
		_, r := newTestSpace(32 * 1024) // half the cache
		n := 1 + rng.Intn(1000)
		stride := uint64(8)
		if uint64(n)*stride > 32*1024 {
			n = 32 * 1024 / 8
		}
		b := mem.ReadBurst(r, 0, stride, n)
		c.AccessBurst(b)
		_, misses := c.AccessBurst(b)
		return misses == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// refCache is the reference the slab LRU must match call for call: a
// container/list + map LRU with the same burst arithmetic. It allocates on
// every granule miss, so it serves only as the test oracle.
type refCache struct {
	granule, line uint64
	capacity      int
	lru           *list.List               // front = most recent; values are granule ids
	entries       map[uint64]*list.Element // granule id -> lru node
	hits, misses  int64
}

func newRefCache(sizeBytes, lineBytes, granuleBytes uint64) *refCache {
	return &refCache{
		granule:  granuleBytes,
		line:     lineBytes,
		capacity: int(sizeBytes / granuleBytes),
		lru:      list.New(),
		entries:  make(map[uint64]*list.Element),
	}
}

func (c *refCache) touch(g uint64) bool {
	if e, ok := c.entries[g]; ok {
		c.lru.MoveToFront(e)
		return true
	}
	if c.lru.Len() >= c.capacity {
		back := c.lru.Back()
		delete(c.entries, back.Value.(uint64))
		c.lru.Remove(back)
	}
	c.entries[g] = c.lru.PushFront(g)
	return false
}

func (c *refCache) Access(a mem.Addr) bool {
	if c.touch(uint64(a) / c.granule) {
		c.hits++
		return true
	}
	c.misses++
	return false
}

func (c *refCache) AccessBurst(b mem.Burst) (hits, misses int64) {
	b.Validate()
	if b.N == 0 {
		return 0, 0
	}
	start := uint64(b.Start())
	if b.Stride == 0 {
		if c.touch(start / c.granule) {
			hits = int64(b.N)
		} else {
			misses = 1
			hits = int64(b.N) - 1
		}
		c.hits += hits
		c.misses += misses
		return hits, misses
	}
	last := start + uint64(b.N-1)*b.Stride
	for g := start / c.granule; g <= last/c.granule; g++ {
		lo, hi := g*c.granule, (g+1)*c.granule
		var iLo uint64
		if lo > start {
			iLo = (lo - start + b.Stride - 1) / b.Stride
		}
		iHi := min((hi-1-start)/b.Stride, uint64(b.N)-1)
		if iLo > iHi {
			continue
		}
		refs := int64(iHi - iLo + 1)
		if c.touch(g) {
			hits += refs
			continue
		}
		lines := refs
		if b.Stride < c.line {
			span := (iHi-iLo)*b.Stride + b.ElemSize()
			lines = min(int64((span+c.line-1)/c.line), refs)
		}
		misses += lines
		hits += refs - lines
	}
	c.hits += hits
	c.misses += misses
	return hits, misses
}

// resident lists the reference's granules from most to least recently used.
func (c *refCache) resident() []uint64 {
	var gs []uint64
	for e := c.lru.Front(); e != nil; e = e.Next() {
		gs = append(gs, e.Value.(uint64))
	}
	return gs
}

// resident lists the cache's granules from most to least recently used.
func (c *Cache) resident() []uint64 {
	var gs []uint64
	for n := c.head; n != none && c.nodes[n].g != empty; n = c.nodes[n].next {
		gs = append(gs, c.nodes[n].g)
	}
	return gs
}

// randomBurst draws a burst inside r whose stride is, by class, 0, below
// the line size, from the line size up to the granule size, or above the
// granule size, and which reaches less than the cache size or, where r is
// large enough, more.
func randomBurst(rng *rand.Rand, r *mem.Region, size, line, granule uint64) mem.Burst {
	b := mem.Burst{Region: r, Elem: []uint64{0, 4, 8, 16}[rng.Intn(4)]}
	switch rng.Intn(4) {
	case 1:
		b.Stride = 1 + rng.Uint64()%(line-1)
	case 2:
		b.Stride = line + rng.Uint64()%(granule-line+1)
	case 3:
		b.Stride = granule + 1 + rng.Uint64()%(2*granule)
	}
	room := r.Size - b.ElemSize() // the furthest the last element may start
	reach := 1 + rng.Uint64()%min(size, room)
	if room > size && rng.Intn(2) == 0 {
		reach = size + rng.Uint64()%(room-size)
	}
	b.N = 1 + rng.Intn(1000)
	if b.Stride > 0 {
		b.N = int(reach/b.Stride) + 1
	}
	b.Offset = rng.Uint64() % (room - uint64(b.N-1)*b.Stride + 1)
	return b
}

// The slab LRU with its direct index must match the reference LRU exactly:
// the same (hits, misses) on every call and the same resident granules in
// the same MRU-to-LRU order after it, on seeded mixes of single references
// and bursts in the three cached platforms' geometries, and in a tiny one of
// four granules where most bursts are longer than twice the cache.
func TestMatchesReferenceLRU(t *testing.T) {
	for _, geo := range []struct {
		name                string
		size, line, granule uint64
	}{
		{"Alpha", 1 << 20, 64, 2048},
		{"Pentium Pro", 256 << 10, 32, 1024},
		{"Exemplar", 1 << 20, 32, 1024},
		{"tiny", 4 << 10, 32, 1024},
	} {
		t.Run(geo.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c := New(geo.size, geo.line, geo.granule)
				ref := newRefCache(geo.size, geo.line, geo.granule)
				s := mem.NewSpace()
				// A small region that fits, so bursts reuse it, and two that
				// stream through more than the cache.
				regions := []*mem.Region{
					s.Alloc("small", geo.size/3),
					s.Alloc("large", 4*geo.size),
					s.Alloc("huge", 8*geo.size),
				}
				for call := 0; call < 400; call++ {
					r := regions[[]int{0, 0, 1, 2}[rng.Intn(4)]]
					var got, want [2]int64
					var what string
					if rng.Intn(4) == 0 {
						a := r.Addr(uint64(rng.Int63n(int64(r.Size))))
						what = "Access"
						got[0], want[0] = b2i(c.Access(a)), b2i(ref.Access(a))
					} else {
						b := randomBurst(rng, r, geo.size, geo.line, geo.granule)
						what = "AccessBurst"
						got[0], got[1] = c.AccessBurst(b)
						want[0], want[1] = ref.AccessBurst(b)
					}
					if got != want {
						t.Fatalf("seed %d call %d: %s = %v, reference %v", seed, call, what, got, want)
					}
					if g, w := c.resident(), ref.resident(); !slices.Equal(g, w) {
						t.Fatalf("seed %d call %d: resident granules differ from the reference after %s:\n%v\n%v",
							seed, call, what, g, w)
					}
				}
				if c.Hits() != ref.hits || c.Misses() != ref.misses {
					t.Errorf("seed %d: counters %d/%d, reference %d/%d", seed, c.Hits(), c.Misses(), ref.hits, ref.misses)
				}
			}
		})
	}
}

// LRU is a stack algorithm: on one sequence of references, a cache holds
// every granule that a smaller cache with the same line and granule sizes
// holds, in the same order, so it never misses more. Check both after every
// call of seeded mixes, for capacities from one granule, where nearly every
// burst is longer than twice the cache, to 256.
func TestInclusionAcrossCapacities(t *testing.T) {
	const line, granule = 32, 1024
	capacities := []uint64{1, 2, 3, 4, 7, 16, 256}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		caches := make([]*Cache, len(capacities))
		for i, n := range capacities {
			caches[i] = New(n*granule, line, granule)
		}
		s := mem.NewSpace()
		regions := []*mem.Region{s.Alloc("small", 8*granule), s.Alloc("large", 1<<20)}
		for call := 0; call < 500; call++ {
			r := regions[rng.Intn(2)]
			access := rng.Intn(4) == 0
			a := r.Addr(uint64(rng.Int63n(int64(r.Size))))
			size := capacities[rng.Intn(len(capacities))] * granule
			b := randomBurst(rng, r, size, line, granule)
			var smaller []uint64
			var smallerMisses int64
			for i, c := range caches {
				var misses int64
				if access {
					misses = 1 - b2i(c.Access(a))
				} else {
					_, misses = c.AccessBurst(b)
				}
				res := c.resident()
				if i > 0 && misses > smallerMisses {
					t.Fatalf("seed %d call %d: %d granules missed %d, %d granules %d",
						seed, call, capacities[i], misses, capacities[i-1], smallerMisses)
				}
				if i > 0 && (len(res) < len(smaller) || !slices.Equal(smaller, res[:len(smaller)])) {
					t.Fatalf("seed %d call %d: %d granules hold %v, not a prefix of %d granules' %v",
						seed, call, capacities[i-1], smaller, capacities[i], res)
				}
				smaller, smallerMisses = res, misses
			}
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Once the index covers the address space, neither a streaming burst (every
// granule a miss that evicts) nor a single reference allocates.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	c := New(256<<10, 32, 1024)
	_, r := newTestSpace(8 << 20)
	stream := mem.ReadBurst(r, 0, 8, 1<<20)
	c.AccessBurst(stream)
	if a := testing.AllocsPerRun(10, func() { c.AccessBurst(stream) }); a != 0 {
		t.Errorf("streaming AccessBurst: %v allocations per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { c.Access(r.Addr(4096)) }); a != 0 {
		t.Errorf("Access: %v allocations per call, want 0", a)
	}
}
