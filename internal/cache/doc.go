// Package cache implements the set-associative cache models used for the
// private L2s and the shared, sliced L3 of the simulated SoC.
//
// The L3 supports way-based capacity partitioning equivalent to Intel CAT:
// each QoS class may be restricted to an exclusive, contiguous range of
// ways, which is how every PABST experiment isolates classes in the shared
// cache (Section II-B / IV-A of the paper).
//
// Accesses are modeled atomically: a miss immediately allocates the line
// and reports the victim, and the caller is responsible for modeling the
// fill latency and for turning dirty victims into writeback traffic. This
// is the standard simplification for cycle-approximate cache models; the
// in-flight window it elides is small relative to the epoch and windowing
// timescales PABST operates on.
//
// Layout. A cache is two parallel set-major arrays, 12 bytes per line:
// keys []uint64 packs the line number (bits 0–57; line numbers are
// addresses shifted right by mem.LineShift, so they always fit), the
// owning class (bits 58–61), dirty (bit 62) and valid (bit 63); used
// []uint32 holds the LRU stamps. A hit probe compares
// key&(valid|tagMask) over Ways contiguous words, 128 B for a 16-way
// set. The L1, L2 and L3 slice of one tile hold 12,800 lines, so the
// arrays dominate a tile's heap.
//
// LRU clock. Stamps come from a 32-bit clock advanced by every Access and
// Writeback. Before it would wrap past MaxUint32, each set's valid stamps
// are renumbered to their ranks 1..Ways (order and ties kept) and the
// clock restarts at Ways. Stamps are only ever compared within one set,
// so no victim choice changes; a differential test pins this against a
// frozen 64-bit-clock reference across the wrap.
//
// Checkpoints. SaveState writes the encoding of the former 24-byte line
// struct — tag and stamp as full uint64s, class as a byte — so the packed
// layout left the checkpoint format (and ckpt.Version) unchanged, and
// checkpoints move freely between the two. RestoreState rejects, as
// ckpt.ErrCorrupt, any line the packed layout cannot hold or the LRU
// order cannot have produced.
//
// Main entry points: New builds a cache from a Config; Cache.Access is
// the hit/miss/victim state machine; Cache.Partition installs a CAT way
// range for a class. The soc package owns all instances and drives them
// from the tile and slice tick paths.
package cache
