package cache

import (
	"fmt"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
)

// refCache is the pre-packing cache: an array of 24-byte line structs
// with a 64-bit LRU clock. The access code below is the old
// implementation frozen verbatim (two one-line helpers inlined), not
// re-derived. It exists only as the oracle for the differential and
// clock-wrap tests, which pin every result, counter, occupancy count and
// checkpoint byte of the packed layout against it.
type refCache struct {
	cfg     Config
	numSets int
	lines   []refLine // numSets * ways, set-major
	clock   uint64

	partitioned bool
	partStart   [mem.MaxClasses]int
	partWays    [mem.MaxClasses]int

	Hits, Misses, Evictions, DirtyEvictions uint64
}

type refLine struct {
	tag   uint64
	class mem.ClassID
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

func newRef(cfg Config) *refCache {
	numSets := cfg.SizeBytes / (cfg.Ways * mem.LineSize)
	return &refCache{cfg: cfg, numSets: numSets, lines: make([]refLine, numSets*cfg.Ways)}
}

func (c *refCache) Partition(class mem.ClassID, start, n int) {
	if n < 0 || start < 0 || start+n > c.cfg.Ways {
		panic(fmt.Sprintf("cache: partition [%d,%d) outside %d ways", start, start+n, c.cfg.Ways))
	}
	c.partitioned = true
	c.partStart[class] = start
	c.partWays[class] = n
}

func (c *refCache) setFor(addr mem.Addr) int {
	return int((addr.LineID() >> c.cfg.IndexShift) % uint64(c.numSets))
}

func (c *refCache) Access(addr mem.Addr, write bool, class mem.ClassID) Result {
	c.clock++
	set := c.setFor(addr)
	base := set * c.cfg.Ways
	tag := addr.LineID()

	// Hit path: search every way.
	for i := 0; i < c.cfg.Ways; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			l.used = c.clock
			if write {
				l.dirty = true
			}
			c.Hits++
			return Result{Hit: true}
		}
	}
	c.Misses++

	// Victim selection within the class's allowed ways.
	start, n := 0, c.cfg.Ways
	if c.partitioned && c.partWays[class] > 0 {
		start, n = c.partStart[class], c.partWays[class]
	}
	victimIdx := base + start
	for i := start; i < start+n; i++ {
		l := &c.lines[base+i]
		if !l.valid {
			victimIdx = base + i
			break
		}
		if l.used < c.lines[victimIdx].used {
			victimIdx = base + i
		}
	}
	v := &c.lines[victimIdx]
	res := Result{}
	if v.valid {
		c.Evictions++
		if v.dirty {
			c.DirtyEvictions++
		}
		res.Evicted = true
		res.Victim = Victim{
			Addr:  mem.Addr(v.tag << mem.LineShift),
			Class: v.class,
			Dirty: v.dirty,
		}
	}
	*v = refLine{tag: tag, class: class, valid: true, dirty: write, used: c.clock}
	return res
}

func (c *refCache) Writeback(addr mem.Addr, class mem.ClassID) bool {
	c.clock++
	set := c.setFor(addr)
	base := set * c.cfg.Ways
	tag := addr.LineID()
	for i := 0; i < c.cfg.Ways; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			l.dirty = true
			l.used = c.clock
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

func (c *refCache) Contains(addr mem.Addr) bool {
	set := c.setFor(addr)
	base := set * c.cfg.Ways
	tag := addr.LineID()
	for i := 0; i < c.cfg.Ways; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) OccupancyInto(dst *[mem.MaxClasses]int) {
	for i := range dst {
		dst[i] = 0
	}
	for i := range c.lines {
		if c.lines[i].valid {
			dst[c.lines[i].class]++
		}
	}
}

func (c *refCache) SaveState(w *ckpt.Writer) {
	w.Int(len(c.lines))
	for i := range c.lines {
		l := &c.lines[i]
		w.Bool(l.valid)
		if !l.valid {
			continue
		}
		w.U64(l.tag)
		w.U8(uint8(l.class))
		w.Bool(l.dirty)
		w.U64(l.used)
	}
	w.U64(c.clock)
	w.U64(c.Hits)
	w.U64(c.Misses)
	w.U64(c.Evictions)
	w.U64(c.DirtyEvictions)
}
