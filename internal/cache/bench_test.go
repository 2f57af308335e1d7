package cache

import (
	"testing"
	"unsafe"

	"pabst/internal/mem"
)

func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{SizeBytes: 256 * 1024, Ways: 8})
	c.Access(0x1000, false, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, false, 0)
	}
}

func BenchmarkAccessMissEvict(b *testing.B) {
	c := New(Config{SizeBytes: 256 * 1024, Ways: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(mem.Addr(i*mem.LineSize), i%4 == 0, 0)
	}
}

func BenchmarkAccessPartitioned(b *testing.B) {
	c := New(Config{SizeBytes: 512 * 1024, Ways: 16})
	c.Partition(0, 0, 8)
	c.Partition(1, 8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(mem.Addr(i*mem.LineSize), false, mem.ClassID(i%2))
	}
}

func BenchmarkWriteback(b *testing.B) {
	c := New(Config{SizeBytes: 256 * 1024, Ways: 8})
	for i := 0; i < 4096; i++ {
		c.Access(mem.Addr(i*mem.LineSize), false, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Writeback(mem.Addr((i%4096)*mem.LineSize), 0)
	}
}

// BenchmarkAccessL3Resident probes resident lines spread over 256 full
// L3 slices (512 KB, 16 ways, IndexShift 8), a working set far larger
// than a host's caches, so each hit pays for the memory it touches as on
// a 256-tile mesh. It reports the array bytes each cache line costs.
func BenchmarkAccessL3Resident(b *testing.B) {
	const slices = 256
	cfg := Config{SizeBytes: 512 * 1024, Ways: 16, IndexShift: 8}
	caches := make([]*Cache, slices)
	lines := cfg.SizeBytes / mem.LineSize
	for s := range caches {
		caches[s] = New(cfg)
		for j := 0; j < lines; j++ {
			caches[s].Access(mem.Addr(j<<(8+mem.LineShift)), false, 0)
		}
	}
	x := uint32(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13 // xorshift: a host-cache-hostile access order
		x ^= x >> 17
		x ^= x << 5
		c := caches[x%slices]
		if !c.Access(mem.Addr(int(x>>8)%lines<<(8+mem.LineShift)), false, 0).Hit {
			b.Fatal("resident line missed")
		}
	}
	c0 := caches[0]
	b.ReportMetric(float64(unsafe.Sizeof(c0.keys[0])+unsafe.Sizeof(c0.used[0])), "B/line")
}
