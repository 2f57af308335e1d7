package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
)

// Profile attribution: every CPU sample taken inside a measured op is
// charged to the simulator layer that owns the nearest component-tick
// frame on its stack. Samples with no such frame go to the runtime when
// they sit under the garbage collector, to the kernel ("sim") when they
// sit under internal/sim, and to "other" otherwise — so a renamed tick
// function shows up as a jump in other.share instead of silently moving
// time between layers. The rules read only function names, so they work
// under both the cycle and the event kernel.

// layerFrames maps the frames that own a layer's work to the layer.
var layerFrames = map[string]string{
	"pabst/internal/soc.(*Tile).tick":          "tile",
	"pabst/internal/soc.(*Slice).tick":         "slice",
	"pabst/internal/soc.(*frontDoor).tick":     "mc",
	"pabst/internal/dram.(*Controller).Tick":   "mc",
	"pabst/internal/soc.(*System).epochTick":   "epoch",
	"pabst/internal/soc.(*System).drainEpochQ": "epoch",
	"pabst/internal/soc.(*System).sampleTick":  "stats",
	"pabst.(*Builder).Build":                   "build",
}

// layers lists every attribution bucket; their shares sum to one.
var layers = []string{"tile", "slice", "mc", "epoch", "stats", "build", "sim", "runtime", "other"}

// cacheAccessFrame is reported separately: cache lookups run under the
// tile (L1/L2) and slice (L3) layers alike.
const cacheAccessFrame = "pabst/internal/cache.(*Cache).Access"

// opLabel marks samples taken while a measured op runs.
const opLabel = "perfbench"

// attribution is a profile's CPU time per layer.
type attribution struct {
	nanos       map[string]int64
	cacheAccess int64
	total       int64
	samples     int64
}

// add merges another profile's attribution into a.
func (a *attribution) add(b *attribution) {
	for l, n := range b.nanos {
		a.nanos[l] += n
	}
	a.cacheAccess += b.cacheAccess
	a.total += b.total
	a.samples += b.samples
}

// share returns the layer's fraction of attributed CPU time.
func (a *attribution) share(layer string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.nanos[layer]) / float64(a.total)
}

// layerOf classifies one stack (leaf first).
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerFrames[fn]; ok {
			return l
		}
	}
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "runtime"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "pabst/internal/sim.") {
			return "sim"
		}
	}
	return "other"
}

func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// attribute charges a profile's samples to layers. Samples from ops
// (labelled) count; unlabelled samples count only when they are garbage
// collection, which runs on its own goroutines on behalf of the ops.
// Everything else unlabelled is the benchmark's own bookkeeping between
// ops and is left out.
func attribute(p *cpuProfile) *attribution {
	a := &attribution{nanos: map[string]int64{}}
	for _, s := range p.samples {
		var layer string
		if s.labels[opLabel] != "" {
			layer = layerOf(s.stack)
		} else if l := layerOf(s.stack); l == "runtime" {
			layer = l
		} else {
			continue
		}
		a.nanos[layer] += s.nanos
		a.total += s.nanos
		a.samples += s.count
		for _, fn := range s.stack {
			if fn == cacheAccessFrame {
				a.cacheAccess += s.nanos
				break
			}
		}
	}
	return a
}

// profiler records one CPU profile around a traced phase.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and attributes it.
func (p *profiler) stop() (*attribution, error) {
	pprof.StopCPUProfile()
	prof, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return attribute(prof), nil
}

// opCtx carries the op label. asOp swaps it onto the goroutine and
// back instead of calling pprof.Do, which would allocate per op.
var opCtx = pprof.WithLabels(context.Background(), pprof.Labels(opLabel, "op"))

// asOp runs fn with the op label set, so its samples are attributed.
func asOp(fn func()) {
	pprof.SetGoroutineLabels(opCtx)
	fn()
	pprof.SetGoroutineLabels(context.Background())
}

// shareNames names each layer's share metric.
var shareNames = map[string]string{
	"sim":     "sim.dispatch_share",
	"runtime": "runtime.gc_share",
}

// putShares adds the attribution's per-layer shares to the metrics.
func (r *report) putShares(a *attribution) {
	for _, l := range layers {
		name, ok := shareNames[l]
		if !ok {
			name = l + ".share"
		}
		r.put(name, a.share(l))
	}
	access := 0.0
	if a.total > 0 {
		access = float64(a.cacheAccess) / float64(a.total)
	}
	r.put("cache.access_share", access)
	r.put("profile.samples", float64(a.samples))
}
