package cache

import (
	"testing"

	"repro/internal/mem"
)

// BenchmarkAccessBurstStreaming measures the analytic burst path over a
// large region (many granules per call).
func BenchmarkAccessBurstStreaming(b *testing.B) {
	c := New(256<<10, 32, 1024)
	s := mem.NewSpace()
	r := s.Alloc("data", 8<<20)
	burst := mem.ReadBurst(r, 0, 8, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessBurst(burst)
	}
}

// BenchmarkAccessBurstLong measures a burst over 16 times the cache: the
// Exemplar's geometry and Terrain Masking's ray stride, so the walk touches
// twice the capacity and prices the rest of the granules without the LRU.
func BenchmarkAccessBurstLong(b *testing.B) {
	c := New(1<<20, 32, 1024)
	s := mem.NewSpace()
	r := s.Alloc("data", 16<<20)
	burst := mem.Burst{Region: r, Stride: 64, Elem: 4, N: 16 << 20 / 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessBurst(burst)
	}
}

// BenchmarkAccessSingle measures the single-reference hit path.
func BenchmarkAccessSingle(b *testing.B) {
	c := New(256<<10, 32, 1024)
	s := mem.NewSpace()
	r := s.Alloc("data", 64<<10)
	c.Access(r.Addr(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(r.Addr(uint64(i) % (64 << 10)))
	}
}
