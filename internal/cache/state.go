package cache

import (
	"fmt"
	"math"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
)

// SaveState implements ckpt.Saver: every line plus the LRU clock and the
// four stat counters. Partitions are structural (re-applied from the
// config by the system's Finalize) and are not saved. The encoding is
// the one the former 24-byte line struct wrote — tag, class and stamp at
// full width — so checkpoints did not change with the packed layout.
func (c *Cache) SaveState(w *ckpt.Writer) {
	w.Int(len(c.keys))
	for i, k := range c.keys {
		w.Bool(k&validBit != 0)
		if k&validBit == 0 {
			continue
		}
		w.U64(k & tagMask)
		w.U8(uint8((k >> classShift) & classMask))
		w.Bool(k&dirtyBit != 0)
		w.U64(uint64(c.used[i]))
	}
	w.U64(uint64(c.clock))
	w.U64(c.Hits)
	w.U64(c.Misses)
	w.U64(c.Evictions)
	w.U64(c.DirtyEvictions)
}

// RestoreState implements ckpt.Restorer onto a cache with identical
// geometry. It fails with ckpt.ErrCorrupt on any line the packed layout
// cannot hold or the LRU order cannot have produced: a tag of 2^58 or
// more, a class of mem.MaxClasses or more, a valid line stamped 0 or
// after the saved clock, or a clock past 32 bits.
func (c *Cache) RestoreState(r *ckpt.Reader) {
	if n := r.Int(); n != len(c.keys) {
		r.Fail(fmt.Errorf("%w: cache has %d lines, checkpoint has %d", ckpt.ErrMismatch, len(c.keys), n))
		return
	}
	var newest uint64
	for i := range c.keys {
		if !r.Bool() {
			c.keys[i], c.used[i] = 0, 0
			continue
		}
		tag, class, dirty, stamp := r.U64(), r.U8(), r.Bool(), r.U64()
		if tag > tagMask || class >= mem.MaxClasses || stamp == 0 {
			r.Fail(fmt.Errorf("%w: cache line %d: tag %#x, class %d, stamp %d out of range",
				ckpt.ErrCorrupt, i, tag, class, stamp))
			return
		}
		key := validBit | uint64(class)<<classShift | tag
		if dirty {
			key |= dirtyBit
		}
		c.keys[i], c.used[i] = key, uint32(stamp)
		newest = max(newest, stamp)
	}
	clock := r.U64()
	if clock > math.MaxUint32 || newest > clock {
		r.Fail(fmt.Errorf("%w: cache clock %d (newest stamp %d) out of range", ckpt.ErrCorrupt, clock, newest))
		return
	}
	c.clock = uint32(clock)
	c.Hits = r.U64()
	c.Misses = r.U64()
	c.Evictions = r.U64()
	c.DirtyEvictions = r.U64()
}
