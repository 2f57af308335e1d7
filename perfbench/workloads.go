package main

import (
	"fmt"

	"pabst"
)

// The machine workloads. Each uses the builder's defaults except where
// noted, so a change of default shows up as a measured change. See
// README.md for why each exists and which layers it stresses. Op chunks
// are sized to about a tenth of a second on a 2-core host, long enough
// that a brief stall elsewhere on a shared host does not set the tail.

// maxRegionOffset bounds the seed-derived start offset of a stream's
// region; TileRegion ranges are 4 GiB apart and 256 MiB long, so an
// offset below 64 MiB never makes two tiles' footprints alias.
const maxRegionOffset = 64 << 20

// streamRegion is tile's region moved by a line-aligned offset drawn
// from the seed stream, so seedless streams still see seed-dependent
// addresses (and thus channel and bank mappings).
func streamRegion(tile int, rng *splitmix64) pabst.Region {
	r := pabst.TileRegion(tile)
	r.Base += pabst.Addr(rng.next() % maxRegionOffset &^ 63)
	return r
}

// fig5Sat is the paper's Figure 5 machine: 32 tiles, two 16-tile read
// stream classes at 7:3 under PABST, every tile busy.
func fig5Sat() *machine {
	return &machine{
		id: "fig5-sat",
		// The first ~300k cycles are a fill transient (the streams'
		// rates change by 10x as caches fill); 500k starts the window in
		// steady state.
		warmup:     500_000,
		chunk:      40_000,
		entitledHi: 0.7,
		build: func(seed uint64) (*pabst.Builder, []pabst.ClassID) {
			rng := splitmix64(seed)
			cfg := pabst.Default32Config()
			b := pabst.NewBuilder(cfg, pabst.ModePABST)
			hi := b.AddClass("hi", 7, cfg.L3Ways/2)
			lo := b.AddClass("lo", 3, cfg.L3Ways/2)
			for i := 0; i < 16; i++ {
				b.Attach(i, hi, pabst.Stream("stream", streamRegion(i, &rng), 128, false))
			}
			for i := 16; i < 32; i++ {
				b.Attach(i, lo, pabst.Stream("stream", streamRegion(i, &rng), 128, false))
			}
			return b, []pabst.ClassID{hi, lo}
		},
		check: func(w window) error {
			if s := w.share(0); s < 0.68 || s > 0.72 {
				return fmt.Errorf("high-class share %.4f outside 0.70 +- 0.02", s)
			}
			return nil
		},
	}
}

// coloWrite co-locates a latency-bound tenant (4-chain pointer chasers
// at weight 32) with a write-streaming aggressor (weight 1) on 32
// tiles: random low-MLP reads beside dirty-L3 writebacks.
func coloWrite() *machine {
	return &machine{
		id: "colo-write",
		// Writebacks start only once the aggressor's dirty lines reach
		// DRAM: a 100k-cycle warm-up leaves none in the window, and the
		// write fraction settles near 25% by ~800k cycles.
		warmup: 1_000_000,
		chunk:  50_000,
		build: func(seed uint64) (*pabst.Builder, []pabst.ClassID) {
			rng := splitmix64(seed)
			cfg := pabst.Default32Config()
			b := pabst.NewBuilder(cfg, pabst.ModePABST)
			hi := b.AddClass("hi", 32, cfg.L3Ways-4)
			lo := b.AddClass("lo", 1, 4)
			for i := 0; i < 16; i++ {
				b.Attach(i, hi, pabst.Chaser("chaser", pabst.TileRegion(i), 4, rng.next()))
			}
			for i := 16; i < 32; i++ {
				b.Attach(i, lo, pabst.Stream("wstream", streamRegion(i, &rng), 128, true))
			}
			return b, []pabst.ClassID{hi, lo}
		},
		check: func(w window) error {
			if ops := w.reads + w.writes; w.writes*10 < ops {
				return fmt.Errorf("writes are %d of %d DRAM ops, below 10%%", w.writes, ops)
			}
			return nil
		},
	}
}

// meshBursty is the 16x16 scale-study mesh: staggered clustered read
// bursts on every tile under hierarchical SAT gossip, on the event
// kernel (the cycle kernel runs it ~40x slower).
func meshBursty() *machine {
	return &machine{
		id: "mesh-bursty-256",
		// A fresh mesh runs its first ~150k cycles slower while the heap
		// is first touched and caches fill; users pay that on every run.
		warmup: 200_000,
		chunk:  100_000,
		build: func(seed uint64) (*pabst.Builder, []pabst.ClassID) {
			rng := splitmix64(seed)
			cfg := pabst.MeshScaledConfig(16, 16)
			cfg.PABST.EpochCycles = 10_000
			cfg.BWWindow = 10_000
			b := pabst.NewBuilder(cfg, pabst.ModePABST, pabst.WithKernel("event"))
			c := b.AddClass("hi", 1, cfg.L3Ways)
			for i := 0; i < cfg.NumTiles(); i++ {
				gap := 15_000 + (i*977)%10_000
				b.Attach(i, c, pabst.BurstyTraffic("bursty", pabst.TileRegion(i), 16, gap, rng.next()))
			}
			return b, []pabst.ClassID{c}
		},
		check: func(w window) error {
			if w.reads == 0 {
				return fmt.Errorf("no DRAM reads in %d cycles", w.cycles)
			}
			return nil
		},
	}
}
