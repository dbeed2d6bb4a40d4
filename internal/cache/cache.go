// Package cache models a per-processor data cache at granule granularity.
//
// A full line-accurate cache simulation would require one event per memory
// reference, which is far too slow for benchmark-length runs. Instead the
// model tracks residency of fixed-size granules (a few KB) under LRU and
// prices strided bursts analytically:
//
//   - every reference that falls in a resident granule is a hit;
//   - a burst touching a non-resident granule pays one miss per cache line
//     it touches inside that granule (spatial locality within the burst),
//     and the remaining references in the granule hit;
//   - the touched granule becomes resident, evicting the LRU granule if the
//     cache is full.
//
// This captures the two behaviours the paper's results hinge on: working
// sets that fit (Threat Analysis threads run "mostly within cache" and scale
// linearly) and streaming working sets that do not (Terrain Masking is
// memory-bound and saturates the shared bus).
//
// The LRU allocates nothing once warm. It is a fixed slab of one node per
// granule of capacity, doubly linked by int32 indices from the most to the
// least recently used, and a direct index from granule id to the node that
// last held that granule. Addresses come from a bump-allocated mem.Space, so
// granule ids are dense and the index is a slice: it costs 4 bytes per
// granule up to the highest address the cache has touched, and grows by
// doubling. An index entry counts only while its node still holds that
// granule, so an eviction reuses the LRU node without clearing the entry.
package cache

import (
	"fmt"
	"math"

	"repro/internal/mem"
)

// none ends the LRU list.
const none = -1

// empty is the granule id of a node that holds no granule yet. No real
// granule can have it: the index would need 2^64 entries to reach it.
const empty = math.MaxUint64

// node is one slab slot: the granule it holds and its LRU neighbours.
type node struct {
	g          uint64 // granule id, or empty
	prev, next int32  // toward the MRU head and the LRU tail; none at the ends
}

// Cache is a granule-granular LRU cache model. Not safe for concurrent use;
// in the simulator each cache belongs to one processor and all access is
// serialized by the simulation kernel.
type Cache struct {
	granule uint64 // bytes per residency granule
	line    uint64 // bytes per miss-transfer line

	nodes      []node  // one per granule of capacity
	head, tail int32   // most and least recently used node
	index      []int32 // granule id -> node that last held it

	hits, misses int64
}

// New creates a cache of sizeBytes with the given line and granule sizes.
// Granule must be a multiple of line; size must hold at least one granule.
func New(sizeBytes, lineBytes, granuleBytes uint64) *Cache {
	if lineBytes == 0 || granuleBytes == 0 || granuleBytes%lineBytes != 0 {
		panic(fmt.Sprintf("cache: bad geometry line=%d granule=%d", lineBytes, granuleBytes))
	}
	capGr := sizeBytes / granuleBytes
	if capGr < 1 || capGr > math.MaxInt32 {
		panic(fmt.Sprintf("cache: size %d is not 1 to 2^31-1 granules of %d", sizeBytes, granuleBytes))
	}
	// Every node starts empty and linked, so the first capacity misses fill
	// the slab from the tail with no separate fill path.
	nodes := make([]node, capGr)
	for i := range nodes {
		nodes[i] = node{g: empty, prev: int32(i) - 1, next: int32(i) + 1}
	}
	nodes[capGr-1].next = none
	return &Cache{
		granule: granuleBytes,
		line:    lineBytes,
		nodes:   nodes,
		tail:    int32(capGr - 1),
	}
}

// Hits returns cumulative hit count.
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns cumulative miss count.
func (c *Cache) Misses() int64 { return c.misses }

// touch marks granule g resident and most-recently-used, reporting whether
// it was already resident. A miss takes the LRU node, evicting its granule.
func (c *Cache) touch(g uint64) bool {
	if g >= uint64(len(c.index)) {
		c.grow(g)
	}
	n := c.index[g]
	hit := c.nodes[n].g == g
	if !hit {
		n = c.tail
		c.nodes[n].g = g
		c.index[g] = n
	}
	if n != c.head {
		nd := &c.nodes[n]
		c.nodes[nd.prev].next = nd.next
		if nd.next == none {
			c.tail = nd.prev
		} else {
			c.nodes[nd.next].prev = nd.prev
		}
		nd.prev, nd.next = none, c.head
		c.nodes[c.head].prev = n
		c.head = n
	}
	return hit
}

// grow extends the index to cover granule g. New entries point at node 0,
// which is harmless: an entry counts only while its node holds that granule.
func (c *Cache) grow(g uint64) {
	idx := make([]int32, max(g+1, 2*uint64(len(c.index))))
	copy(idx, c.index)
	c.index = idx
}

// Access models a single reference, returning true on hit. A miss on a
// non-resident granule counts as exactly one line miss.
func (c *Cache) Access(a mem.Addr) bool {
	if c.touch(uint64(a) / c.granule) {
		c.hits++
		return true
	}
	c.misses++
	return false
}

// AccessBurst models a strided burst, returning the hit/miss split. The sum
// hits+misses equals b.N. Misses are in units of line transfers; a burst
// with stride smaller than the line size therefore misses on only a fraction
// of its references.
func (c *Cache) AccessBurst(b mem.Burst) (hits, misses int64) {
	b.Validate()
	if b.N == 0 {
		return 0, 0
	}
	start := uint64(b.Start())
	if b.Stride == 0 {
		// n references to one address: at most one line miss.
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
	gFirst := start / c.granule
	gLast := last / c.granule
	for g := gFirst; g <= gLast; g++ {
		lo, hi := uint64(g)*c.granule, uint64(g+1)*c.granule
		// indices i with start + i*stride in [lo, hi)
		var iLo uint64
		if lo > start {
			iLo = (lo - start + b.Stride - 1) / b.Stride
		}
		iHi := (hi - 1 - start) / b.Stride // last index touching this granule
		if iHi >= uint64(b.N) {
			iHi = uint64(b.N) - 1
		}
		if iLo > iHi {
			continue
		}
		refs := int64(iHi - iLo + 1)
		if c.touch(g) {
			hits += refs
			continue
		}
		// Non-resident granule: one miss per distinct line touched.
		var lines int64
		if b.Stride >= c.line {
			lines = refs
		} else {
			spanInGranule := (iHi-iLo)*b.Stride + b.ElemSize()
			lines = int64((spanInGranule + c.line - 1) / c.line)
			if lines > refs {
				lines = refs
			}
		}
		misses += lines
		hits += refs - lines
	}
	c.hits += hits
	c.misses += misses
	return hits, misses
}
