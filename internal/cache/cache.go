package cache

import (
	"fmt"
	"math"

	"pabst/internal/mem"
)

// Config sizes a cache.
type Config struct {
	// SizeBytes is the total capacity. Must be a power-of-two multiple of
	// Ways*mem.LineSize.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// IndexShift drops this many low line-number bits before set indexing.
	// Sliced caches set it to log2(slices) so that the bits consumed by
	// slice selection do not alias every line of a slice into a fraction
	// of its sets.
	IndexShift uint
}

// Key word layout: each way's tag and state share one uint64, so a hit
// probe reads Ways contiguous words. The tag is the whole line number,
// which fits because line numbers are addresses shifted right by
// mem.LineShift.
const (
	tagBits    = 64 - mem.LineShift
	tagMask    = 1<<tagBits - 1
	classShift = tagBits
	classMask  = 1<<4 - 1
	dirtyBit   = 1 << 62
	validBit   = 1 << 63
)

// The class field must hold every class ID and stay clear of the state
// bits: raising mem.MaxClasses past 16, or shrinking mem.LineShift, fails
// the build here instead of corrupting keys.
var (
	_ [classMask + 1 - mem.MaxClasses]struct{}
	_ [62 - classShift - 4]struct{}
)

// Victim describes a line displaced by an allocation.
type Victim struct {
	Addr  mem.Addr
	Class mem.ClassID
	Dirty bool
}

// Result reports the outcome of an access.
type Result struct {
	Hit     bool
	Evicted bool
	Victim  Victim
}

// Cache is a single set-associative array. It is not safe for concurrent
// use.
type Cache struct {
	cfg     Config
	setMask uint64
	keys    []uint64 // numSets * ways, set-major: tag | class | dirty | valid
	used    []uint32 // LRU stamps, parallel to keys; 0 for invalid ways
	clock   uint32

	partStart [mem.MaxClasses]int
	partWays  [mem.MaxClasses]int // 0: class unrestricted

	// Stats
	Hits, Misses, Evictions, DirtyEvictions uint64
}

// New builds a cache. It panics on invalid geometry, which is a
// configuration error caught during system construction.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	setBytes := cfg.Ways * mem.LineSize
	if cfg.SizeBytes%setBytes != 0 {
		panic(fmt.Sprintf("cache: size %d not a multiple of way set size %d", cfg.SizeBytes, setBytes))
	}
	numSets := cfg.SizeBytes / setBytes
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", numSets))
	}
	return &Cache{
		cfg:     cfg,
		setMask: uint64(numSets - 1),
		keys:    make([]uint64, numSets*cfg.Ways),
		used:    make([]uint32, numSets*cfg.Ways),
	}
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return int(c.setMask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Partition restricts allocations by class to ways [start, start+n).
// Lookups still search every way, so repartitioning never loses data; it
// only changes where future victims are chosen. Passing n == 0 removes the
// class's restriction.
func (c *Cache) Partition(class mem.ClassID, start, n int) {
	if n < 0 || start < 0 || start+n > c.cfg.Ways {
		panic(fmt.Sprintf("cache: partition [%d,%d) outside %d ways", start, start+n, c.cfg.Ways))
	}
	c.partStart[class] = start
	c.partWays[class] = n
}

// setBase returns the index of the first way of addr's set.
func (c *Cache) setBase(addr mem.Addr) int {
	return int((addr.LineID()>>c.cfg.IndexShift)&c.setMask) * c.cfg.Ways
}

// probe returns the way of keys holding a valid copy of line tag, or -1.
func probe(keys []uint64, tag uint64) int {
	want := validBit | tag
	for i, k := range keys {
		if k&(validBit|tagMask) == want {
			return i
		}
	}
	return -1
}

// tick advances the LRU clock and returns the new stamp. Before the
// 32-bit clock would wrap, renumber rewrites every set's stamps to their
// ranks, which keeps every future victim choice unchanged.
func (c *Cache) tick() uint32 {
	if c.clock == math.MaxUint32 {
		c.renumber()
	}
	c.clock++
	return c.clock
}

// renumber replaces each valid stamp by its rank among the valid stamps
// of its set (1 + the number of strictly older lines, so order and ties
// are kept) and restarts the clock at Ways, above every rank. Stamps are
// only ever compared within one set, so victim selection cannot tell the
// difference.
func (c *Cache) renumber() {
	ways := c.cfg.Ways
	ranks := make([]uint32, ways)
	for base := 0; base < len(c.keys); base += ways {
		keys, used := c.keys[base:base+ways], c.used[base:base+ways]
		for i, k := range keys {
			if k&validBit == 0 {
				continue
			}
			ranks[i] = 1
			for j, kj := range keys {
				if kj&validBit != 0 && used[j] < used[i] {
					ranks[i]++
				}
			}
		}
		for i, k := range keys {
			if k&validBit != 0 {
				used[i] = ranks[i]
			}
		}
	}
	c.clock = uint32(ways)
}

// Access performs a demand load (write=false) or store (write=true) by
// class. On a miss the line is allocated in the class's partition and the
// displaced victim, if any, is reported.
func (c *Cache) Access(addr mem.Addr, write bool, class mem.ClassID) Result {
	now := c.tick()
	base := c.setBase(addr)
	keys := c.keys[base : base+c.cfg.Ways]
	used := c.used[base : base+c.cfg.Ways]
	tag := addr.LineID()

	// Hit path: search every way.
	if i := probe(keys, tag); i >= 0 {
		used[i] = now
		if write {
			keys[i] |= dirtyBit
		}
		c.Hits++
		return Result{Hit: true}
	}
	c.Misses++

	// Victim selection within the class's allowed ways.
	start, n := 0, len(keys)
	if w := c.partWays[class]; w > 0 {
		start, n = c.partStart[class], w
	}
	v := start
	for i := start; i < start+n; i++ {
		if keys[i]&validBit == 0 {
			v = i
			break
		}
		if used[i] < used[v] {
			v = i
		}
	}
	res := Result{}
	if k := keys[v]; k&validBit != 0 {
		dirty := k&dirtyBit != 0
		c.Evictions++
		if dirty {
			c.DirtyEvictions++
		}
		res.Evicted = true
		res.Victim = Victim{
			Addr:  mem.Addr((k & tagMask) << mem.LineShift),
			Class: mem.ClassID((k >> classShift) & classMask),
			Dirty: dirty,
		}
	}
	key := validBit | uint64(class)<<classShift | tag
	if write {
		key |= dirtyBit
	}
	keys[v], used[v] = key, now
	return res
}

// Writeback merges an evicted dirty line from a lower-level cache: if the
// line is resident it is dirtied in place (and counted as a hit) and true
// is returned; otherwise false is returned and nothing is allocated
// (write-no-allocate), leaving the caller to forward the data to memory.
func (c *Cache) Writeback(addr mem.Addr, class mem.ClassID) bool {
	now := c.tick()
	base := c.setBase(addr)
	if i := probe(c.keys[base:base+c.cfg.Ways], addr.LineID()); i >= 0 {
		c.keys[base+i] |= dirtyBit
		c.used[base+i] = now
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// Contains reports whether addr is resident, without touching LRU state.
func (c *Cache) Contains(addr mem.Addr) bool {
	base := c.setBase(addr)
	return probe(c.keys[base:base+c.cfg.Ways], addr.LineID()) >= 0
}

// OccupancyInto counts valid lines held by each class, the monitoring
// feature existing QoS architectures expose for the shared cache: dst is
// zeroed and filled with each class's valid-line count. It does not
// allocate.
func (c *Cache) OccupancyInto(dst *[mem.MaxClasses]int) {
	for i := range dst {
		dst[i] = 0
	}
	for _, k := range c.keys {
		if k&validBit != 0 {
			dst[(k>>classShift)&classMask]++
		}
	}
}

// WaysOf reports the partition assigned to class; ok is false when the
// class is unrestricted.
func (c *Cache) WaysOf(class mem.ClassID) (start, n int, ok bool) {
	if c.partWays[class] == 0 {
		return 0, 0, false
	}
	return c.partStart[class], c.partWays[class], true
}
