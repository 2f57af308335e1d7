package cache

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pabst/internal/mem"
)

// diffPartitions are the way layouts the differential tests cycle
// through: none, disjoint, and overlapping, each with an unrestricted
// class beside the partitioned ones.
var diffPartitions = []struct {
	name  string
	apply func(part func(mem.ClassID, int, int), ways int)
}{
	{"none", func(func(mem.ClassID, int, int), int) {}},
	{"disjoint", func(part func(mem.ClassID, int, int), w int) {
		part(1, 0, (w+1)/2)
		part(2, (w+1)/2, w/2)
	}},
	{"overlapping", func(part func(mem.ClassID, int, int), w int) {
		part(1, 0, (3*w+3)/4)
		part(2, w/4, w-w/4)
		part(3, w/2, (w+1)/2)
	}},
}

var diffGeometries = []Config{
	{SizeBytes: 16 * mem.LineSize, Ways: 1},
	{SizeBytes: 4 * 2 * mem.LineSize, Ways: 2, IndexShift: 1},
	{SizeBytes: 8 * 4 * mem.LineSize, Ways: 4},
	{SizeBytes: 4 * 8 * mem.LineSize, Ways: 8, IndexShift: 3},
	{SizeBytes: 4 * 16 * mem.LineSize, Ways: 16, IndexShift: 2},
}

// pair drives the packed cache and the frozen reference in lockstep.
type pair struct {
	t   *testing.T
	c   *Cache
	ref *refCache
}

func newPair(t *testing.T, cfg Config, layout int) *pair {
	p := &pair{t: t, c: New(cfg), ref: newRef(cfg)}
	p.partition(layout)
	return p
}

func (p *pair) partition(layout int) {
	for cls := mem.ClassID(0); cls < 4; cls++ {
		p.c.Partition(cls, 0, 0)
		p.ref.Partition(cls, 0, 0)
	}
	diffPartitions[layout].apply(func(cls mem.ClassID, start, n int) {
		p.c.Partition(cls, start, n)
		p.ref.Partition(cls, start, n)
	}, p.c.Ways())
}

func (p *pair) access(addr mem.Addr, write bool, cls mem.ClassID) Result {
	p.t.Helper()
	got, want := p.c.Access(addr, write, cls), p.ref.Access(addr, write, cls)
	if got != want {
		p.t.Fatalf("Access(%#x, %v, %d) = %+v, reference %+v", uint64(addr), write, cls, got, want)
	}
	return got
}

func (p *pair) writeback(addr mem.Addr, cls mem.ClassID) {
	p.t.Helper()
	if got, want := p.c.Writeback(addr, cls), p.ref.Writeback(addr, cls); got != want {
		p.t.Fatalf("Writeback(%#x, %d) = %v, reference %v", uint64(addr), cls, got, want)
	}
}

func (p *pair) contains(addr mem.Addr) {
	p.t.Helper()
	if got, want := p.c.Contains(addr), p.ref.Contains(addr); got != want {
		p.t.Fatalf("Contains(%#x) = %v, reference %v", uint64(addr), got, want)
	}
}

// checkState compares the counters and occupancy, and the checkpoint
// bytes when withBytes is set (stamps differ from the reference's once
// the packed clock has wrapped).
func (p *pair) checkState(withBytes bool) {
	p.t.Helper()
	c, ref := p.c, p.ref
	got := [4]uint64{c.Hits, c.Misses, c.Evictions, c.DirtyEvictions}
	want := [4]uint64{ref.Hits, ref.Misses, ref.Evictions, ref.DirtyEvictions}
	if got != want {
		p.t.Fatalf("counters %v, reference %v", got, want)
	}
	var occ, refOcc [mem.MaxClasses]int
	c.OccupancyInto(&occ)
	ref.OccupancyInto(&refOcc)
	if occ != refOcc {
		p.t.Fatalf("occupancy %v, reference %v", occ, refOcc)
	}
	if withBytes && !bytes.Equal(payload(c), payload(ref)) {
		p.t.Fatal("SaveState bytes differ from the reference's")
	}
}

// randAddr draws mostly from a range a few times the cache's capacity,
// so hits, misses and evictions all occur, plus some line numbers at the
// top of the 58-bit tag range and unaligned byte offsets.
func randAddr(rng *rand.Rand, lines int) mem.Addr {
	id := uint64(rng.IntN(4 * lines))
	if rng.IntN(20) == 0 {
		id = tagMask - uint64(rng.IntN(2*lines))
	}
	return mem.Addr(id<<mem.LineShift | uint64(rng.IntN(mem.LineSize)))
}

// step applies one random operation to both caches.
func (p *pair) step(rng *rand.Rand) {
	p.t.Helper()
	lines := len(p.c.keys)
	addr, cls := randAddr(rng, lines), mem.ClassID(rng.IntN(4))
	switch op := rng.IntN(20); {
	case op < 12:
		p.access(addr, op < 4, cls)
	case op < 16:
		p.writeback(addr, cls)
	case op < 19:
		p.contains(addr)
	default:
		p.partition(rng.IntN(len(diffPartitions)))
	}
}

// TestDifferentialAgainstReference drives the packed layout and the
// frozen 24-byte reference through seeded random mixes of reads, writes,
// writebacks, residency probes and repartitions, and requires every
// result, counter, occupancy count and checkpoint byte to match after
// every operation. Halfway through each run the packed cache is replaced
// by one restored from the reference's checkpoint, which pins the
// interchange of checkpoints between the two layouts.
func TestDifferentialAgainstReference(t *testing.T) {
	const ops = 1500
	for gi, cfg := range diffGeometries {
		for layout := range diffPartitions {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("ways%d/shift%d/%s/seed%d", cfg.Ways, cfg.IndexShift, diffPartitions[layout].name, seed)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewPCG(seed, uint64(gi*len(diffPartitions)+layout)))
					p := newPair(t, cfg, layout)
					for i := 0; i < ops; i++ {
						if i == ops/2 {
							restored := New(cfg)
							if err := restore(restored, payload(p.ref)); err != nil {
								t.Fatalf("restoring the reference's checkpoint: %v", err)
							}
							restored.partStart, restored.partWays = p.c.partStart, p.c.partWays
							p.c = restored
						}
						p.step(rng)
						p.checkState(true)
					}
				})
			}
		}
	}
}

// TestClockWrapKeepsVictims starts a filled, partitioned cache k ticks
// short of the 32-bit clock's limit and drives accesses across the wrap,
// twice. The reference keeps a 64-bit clock, so any victim choice the
// renumbering disturbed would show as a differing result.
func TestClockWrapKeepsVictims(t *testing.T) {
	cfg := Config{SizeBytes: 8 * 8 * mem.LineSize, Ways: 8, IndexShift: 1}
	for _, k := range []uint32{0, 1, 7, 100} {
		for layout := range diffPartitions {
			t.Run(fmt.Sprintf("k%d/%s", k, diffPartitions[layout].name), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(k), uint64(layout)))
				p := newPair(t, cfg, layout)
				lines := len(p.c.keys)
				for i := 0; i < 4*lines; i++ {
					p.step(rng)
				}
				p.checkState(true)
				for wrap := 0; wrap < 2; wrap++ {
					// Jump both clocks forward: every stamp stays older
					// than the clock, so the LRU order is unchanged.
					p.c.clock = math.MaxUint32 - k
					p.ref.clock += 1 << 32
					for i := 0; i < 3*lines; i++ {
						p.step(rng)
					}
					p.checkState(false)
					if p.c.clock > math.MaxUint32/2 {
						t.Fatalf("clock %d did not wrap", p.c.clock)
					}
					for i, k := range p.c.keys {
						if k&validBit != 0 && (p.c.used[i] == 0 || p.c.used[i] > p.c.clock) {
							t.Fatalf("way %d stamp %d outside (0, clock %d]", i, p.c.used[i], p.c.clock)
						}
					}
				}
				for id := 0; id < 4*lines; id++ {
					p.contains(lineAddr(id))
				}
			})
		}
	}
}
