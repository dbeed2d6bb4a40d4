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
// A strided burst is walked granule by granule with no division per
// granule. Divisions place the first reference; after that, additions give
// each granule's reference count and the offset at which the next granule
// is entered. With stride s up to the granule size G, a granule entered at
// an offset below s holds G/s or G/s+1 references, so the price of a cold
// granule between the first and the last, which depends only on its
// reference count, takes one of two values per burst. With s > G every
// reference lies in a granule of its own.
//
// A burst that touches m granules, m more than twice the capacity C, goes
// through the LRU only for its first C and its last C granules. Its granules
// come in increasing id order, so after its first C touches the cache holds
// exactly those C. Each later granule would be reached while the cache holds
// the C granules before it, all of lower id, so every granule in the middle
// misses and its price is its line count; the middle is priced as one sum.
// The last C touches miss too and evict the first C, which leaves the cache
// holding the last C granules, most recent first, exactly as if every
// granule had been touched. The skipped granules' index entries stay stale,
// which the index rule below allows.
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

	gran, s, n, elem := c.granule, b.Stride, uint64(b.N), b.ElemSize()
	g, off := start/gran, start%gran // the granule of reference i, and i's offset in it
	// With s ≤ gran the burst touches every granule from its first to its
	// last. With s > gran each reference touches a granule of its own.
	var m, step, carry uint64 // granules touched; s as whole granules and bytes
	if s <= gran {
		m, carry = (start+(n-1)*s)/gran-g+1, s
	} else {
		m, step, carry = n, s/gran, s%gran
	}
	// A granule between the first and the last is entered at an offset below
	// s. It holds q+1 references if that offset is below r, and q otherwise;
	// with s > gran, q = 0 and r = gran, so it holds one.
	var q, r, lq, lq1 uint64
	if m > 2 {
		q, r = gran/s, gran%s
		lq, lq1 = c.lineMisses(q, s, elem), c.lineMisses(q+1, s, elem)
	}
	// The granules at ordinals [mid, end) of a long burst miss without
	// touching the LRU (see the package comment).
	mid, end := m, m
	if capGr := uint64(len(c.nodes)); m > 2*capGr {
		mid, end = capGr, m-capGr
	}
	var i uint64 // the first reference in granule g, which is ordinal k
	for k := uint64(0); k < m; k++ {
		if k == mid {
			j := end // the first reference of ordinal end; with s > gran, reference end
			if s <= gran {
				j = ((g+end-mid)*gran - start + s - 1) / s
			}
			refs, full := j-i, j-i-q*(end-mid) // skipped references, and granules of q+1
			lines := full*lq1 + (end-mid-full)*lq
			misses += int64(lines)
			hits += int64(refs - lines)
			i, k = j, end
			g, off = (start+j*s)/gran, (start+j*s)%gran
		}
		refs, lines := q, lq
		if off < r {
			refs, lines = q+1, lq1
		}
		if k == 0 || k == m-1 {
			// The first granule may be entered past offset s; the last may
			// be cut short.
			refs = n - i
			if k < m-1 {
				refs = (gran - off + s - 1) / s
			}
			lines = c.lineMisses(refs, s, elem)
		}
		if c.touch(g) {
			hits += int64(refs)
		} else {
			misses += int64(lines)
			hits += int64(refs - lines)
		}
		// The next reference is refs*s bytes on: refs*step granules and
		// refs*carry bytes, which cross at most one more granule boundary.
		i += refs
		g += refs * step
		if off += refs * carry; off >= gran {
			off -= gran
			g++
		}
	}
	c.hits += hits
	c.misses += misses
	return hits, misses
}

// lineMisses prices a non-resident granule that holds refs references of a
// burst with stride s and element size elem: one miss per line they span, at
// most one per reference.
func (c *Cache) lineMisses(refs, s, elem uint64) uint64 {
	if s >= c.line {
		return refs
	}
	return min(((refs-1)*s+elem+c.line-1)/c.line, refs)
}
