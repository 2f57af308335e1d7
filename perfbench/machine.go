package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pabst"
)

// setups is how many times a machine workload builds and warms its
// machine; setup_s is their median and the last one is measured.
const setups = 3

// digestOps is the number of measured ops whose end state, with the
// post-warm-up state, forms the run's digest and modelled metrics. It is
// also the least number of ops a run measures, so every run covers the
// same digest window whatever the host's speed.
const digestOps = 8

// traceBlocks is how many untraced and profiled blocks a traced run
// alternates between.
const traceBlocks = 4

// lateWakeEvery is how many ops pass between late-wake checks; a
// Snapshot costs about half a 256-tile op, so it is not taken per op.
const lateWakeEvery = 16

// machine is a workload that simulates one machine: built and warmed
// `setups` times, then measured in fixed-length chunks (the ops) for
// the run's seconds.
type machine struct {
	id string
	// warmup is the simulated warm-up of each set-up, in cycles; chunk
	// the cycles of one op.
	warmup, chunk uint64
	// build describes the machine for a seed; classes[0] is the
	// high-weight class.
	build func(seed uint64) (*pabst.Builder, []pabst.ClassID)
	// entitledHi is classes[0]'s entitled DRAM share when the workload
	// has a share target, else 0.
	entitledHi float64
	// check is the workload's own per-op output check.
	check func(w window) error
}

func (m *machine) name() string { return m.id }

// window is what one op moved through the DRAM controllers.
type window struct {
	cycles        uint64
	bytes         []uint64 // per class, in class order
	totalBytes    uint64
	reads, writes uint64
}

// share returns class i's fraction of the window's DRAM bytes.
func (w window) share(i int) float64 {
	if w.totalBytes == 0 {
		return 0
	}
	return float64(w.bytes[i]) / float64(w.totalBytes)
}

// phase is one stretch of measured ops.
type phase struct {
	opMs   []float64
	cycles uint64
	allocs uint64 // heap bytes allocated inside the ops
}

func (p *phase) add(q phase) {
	p.opMs = append(p.opMs, q.opMs...)
	p.cycles += q.cycles
	p.allocs += q.allocs
}

// layerLoad is the work each layer did over the traced blocks: visits
// per dispatch class, simulated cycles and DRAM requests.
type layerLoad struct {
	visits   map[string]float64
	cycles   float64
	requests float64
}

// add accumulates the work between two snapshots of a machine with the
// given number of L3 slices. The event kernel counts visits; under the
// cycle kernel every component is visited every cycle.
func (l *layerLoad) add(pre, post pabst.Snapshot, slices int) {
	cycles := float64(post.Cycle - pre.Cycle)
	l.cycles += cycles
	if post.EventClasses != nil {
		for i, ec := range post.EventClasses {
			l.visits[ec.Class] += float64(ec.Visited - pre.EventClasses[i].Visited)
		}
	} else {
		l.visits["tile"] += cycles * float64(len(post.Tiles))
		l.visits["slice"] += cycles * float64(slices)
		l.visits["mc"] += cycles * float64(len(post.MCs))
		l.visits["epoch"] += cycles
	}
	for i := range post.MCs {
		l.requests += float64(post.MCs[i].Reads + post.MCs[i].Writes - pre.MCs[i].Reads - pre.MCs[i].Writes)
	}
}

func (m *machine) run(o options) (*report, error) {
	rep := &report{layers: map[string]metric{}}
	var (
		sys       *pabst.System
		classes   []pabst.ClassID
		buildMs   []float64
		warmupS   []float64
		snapUs    []float64
		setupSnap string
		mismatch  bool
	)
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.Close()
			sys = nil
		}
		runtime.GC()
		b, cls := m.build(o.seed)
		start := time.Now()
		s, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", m.id, err)
		}
		built := time.Now()
		s.Warmup(m.warmup)
		done := time.Now()
		buildMs = append(buildMs, built.Sub(start).Seconds()*1e3)
		warmupS = append(warmupS, done.Sub(built).Seconds())
		rep.setupS = append(rep.setupS, done.Sub(start).Seconds())

		t := time.Now()
		snap := s.Snapshot()
		snapUs = append(snapUs, time.Since(t).Seconds()*1e6)
		d := snapshotDigest(snap)
		if i > 0 && d != setupSnap {
			mismatch = true
		}
		setupSnap = d
		if h := liveHeap(); h > rep.heapBytes {
			rep.heapBytes = h
		}
		sys, classes = s, cls
	}
	defer sys.Close()
	cfg := sys.Config()
	tiles := cfg.NumTiles()

	// The op loop; per-op checks run outside the timed call.
	base := sys.Snapshot()
	prev := sys.Metrics()
	lateChecked := 0
	var digestSnap pabst.Snapshot
	ops := 0
	runOps := func(budget time.Duration) phase {
		var ph phase
		start := time.Now()
		for n := 0; ops < digestOps || n == 0 || time.Since(start) < budget; n++ {
			a0 := allocatedBytes()
			t := time.Now()
			asOp(func() { sys.Run(m.chunk) })
			d := time.Since(t)
			ph.allocs += allocatedBytes() - a0
			ph.opMs = append(ph.opMs, d.Seconds()*1e3)
			ph.cycles += m.chunk
			ops++
			rep.attempted++

			cur := sys.Metrics()
			w := delta(prev, cur, classes)
			prev = cur
			if w.totalBytes != 64*(w.reads+w.writes) {
				rep.fail(1, "op %d: DRAM bytes %d != 64 x (%d reads + %d writes)", ops, w.totalBytes, w.reads, w.writes)
			} else if err := m.check(w); err != nil {
				rep.fail(1, "op %d: %v", ops, err)
			}
			if ops == digestOps || ops-lateChecked == lateWakeEvery {
				t := time.Now()
				snap := sys.Snapshot()
				snapUs = append(snapUs, time.Since(t).Seconds()*1e6)
				if snap.LateWakes != 0 {
					rep.fail(ops-lateChecked, "ops %d-%d: %d late wakes", lateChecked+1, ops, snap.LateWakes)
				}
				lateChecked = ops
				if ops == digestOps {
					digestSnap = snap
				}
			}
		}
		return ph
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	var untraced, traced phase
	attr := &attribution{nanos: map[string]int64{}}
	load := layerLoad{visits: map[string]float64{}}
	if !o.trace {
		untraced = runOps(budget)
	} else {
		// Untraced and profiled blocks alternate, so a drift in host
		// speed over the run cancels out of trace.overhead.
		block := budget / (2 * traceBlocks)
		for i := 0; i < traceBlocks; i++ {
			untraced.add(runOps(block))
			pre := sys.Snapshot()
			prof, err := startProfile()
			if err != nil {
				return nil, err
			}
			traced.add(runOps(block))
			a, err := prof.stop()
			if err != nil {
				return nil, err
			}
			attr.add(a)
			load.add(pre, sys.Snapshot(), tiles)
		}
	}
	final := sys.Snapshot()
	if final.LateWakes != 0 && lateChecked < ops {
		rep.fail(ops-lateChecked, "ops %d-%d: %d late wakes", lateChecked+1, ops, final.LateWakes)
	}
	if mismatch {
		rep.fail(rep.attempted-rep.failed, "set-ups of one seed reached different post-warm-up states")
	}
	if h := liveHeap(); h > rep.heapBytes {
		rep.heapBytes = h
	}

	// Throughput is taken from the median op, so a burst of load from
	// elsewhere on the host moves it less than a mean would.
	kcyc := func(p phase) float64 { return float64(m.chunk) / median(p.opMs) }
	rep.ops, rep.kcyclesPerS = summarize(untraced.opMs), kcyc(untraced)
	rep.digest = digestOf(setupSnap, snapshotDigest(digestSnap))
	hi := digestSnap.Class(classes[0])
	if m.entitledHi > 0 {
		rep.shareErr = math.Abs(hi.Share - m.entitledHi)
	}
	if !o.trace {
		return rep, nil
	}

	// Per-layer metrics of the traced run.
	rep.put("trace.overhead", kcyc(untraced)/kcyc(traced)-1)
	rep.putShares(attr)
	var allVisits float64
	for _, v := range load.visits {
		allVisits += v
	}
	perVisit := func(layer string, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(attr.nanos[layer]) / n
	}
	rep.put("sim.ns_per_visit", perVisit("sim", allVisits))
	rep.put("sim.visits_per_kcycle", allVisits/load.cycles*1e3)
	rep.put("sim.tile_occupancy", load.visits["tile"]/(load.cycles*float64(len(final.Tiles))))
	rep.put("sim.late_wakes", float64(final.LateWakes))
	rep.put("tile.ns_per_visit", perVisit("tile", load.visits["tile"]))
	rep.put("slice.ns_per_visit", perVisit("slice", load.visits["slice"]))
	rep.put("mc.ns_per_visit", perVisit("mc", load.visits["mc"]))
	rep.put("dram.ns_per_request", perVisit("mc", load.requests))
	rep.put("runtime.heap_kb_per_tile", float64(rep.heapBytes)/1e3/float64(tiles))
	rep.put("runtime.alloc_kb_per_mcycle", float64(untraced.allocs)/1e3/(float64(untraced.cycles)/1e6))
	rep.put("pabst.build_ms", median(buildMs))
	rep.put("soc.warmup_s", median(warmupS))
	rep.put("soc.snapshot_us", median(snapUs))

	// Modelled metrics over the fixed digest window.
	win := digestSnap.Window
	kc := float64(win.Cycles) / 1e3
	rep.put("cpu.ipc.hi", hi.IPC)
	rep.put("cpu.miss_latency.hi", hi.MissLatency)
	if len(classes) > 1 {
		lo := digestSnap.Class(classes[1])
		rep.put("cpu.ipc.lo", lo.IPC)
		rep.put("cpu.miss_latency.lo", lo.MissLatency)
	}
	rep.put("dram.reads_per_kcycle", float64(win.Reads)/kc)
	rep.put("dram.writes_per_kcycle", float64(win.Writes)/kc)
	rep.put("dram.bus_util", win.BusUtilization)
	rep.put("dram.read_latency", win.AvgReadLatency)
	var inversions uint64
	for i := range digestSnap.MCs {
		inversions += digestSnap.MCs[i].PriorityInversions - base.MCs[i].PriorityInversions
	}
	rep.put("dram.priority_inversions", float64(inversions))
	rep.put("qos.share_err", rep.shareErr)
	rep.put("sim_digest", float64(rep.digest))
	return rep, nil
}

// delta returns what the DRAM controllers moved between two readings of
// the same measurement window.
func delta(prev, cur pabst.Metrics, classes []pabst.ClassID) window {
	w := window{
		cycles: cur.Cycles - prev.Cycles,
		reads:  cur.Reads - prev.Reads,
		writes: cur.Writes - prev.Writes,
	}
	for c := range cur.BytesByClass {
		w.totalBytes += cur.BytesByClass[c] - prev.BytesByClass[c]
	}
	for _, c := range classes {
		w.bytes = append(w.bytes, cur.BytesByClass[c]-prev.BytesByClass[c])
	}
	return w
}

// snapshotDigest renders the simulated outcome a snapshot shows. It
// leaves out the scheduler's own counters, which differ between kernels
// that simulate identically.
func snapshotDigest(s pabst.Snapshot) string {
	s.EventClasses = nil
	s.SkippedCycles = 0
	return fmt.Sprintf("%+v", s)
}
