package main

import (
	"context"
	"math"
	"time"

	"pabst/internal/exp"
)

// paperExperiments are the registered experiments paper-quick runs, in
// order; their per-experiment metrics are reported under these names.
var paperExperiments = []string{"fig1", "fig5", "fig7", "fig11"}

// paper reproduces registered paper experiments through the experiment
// registry, one RunSpec simulation per op. Every op pays its own build
// and warm-up, as a user reproducing a figure does; the experiment
// registry fixes every seed, so --seed does not change the inputs.
type paper struct {
	id          string
	experiments []string
}

// paperScale is the experiment registry's scale paper-quick runs at.
const paperScale = "quick"

func paperQuick() *paper {
	return &paper{id: "paper-quick", experiments: paperExperiments}
}

func (p *paper) name() string { return p.id }

// paperPass is one run of every experiment's specs.
type paperPass struct {
	opMs    []float64
	cycles  uint64
	busy    time.Duration
	allocs  uint64
	setupS  []float64
	wall    map[string]time.Duration // per experiment
	expCyc  map[string]uint64
	tables  []string // per experiment, JSON
	results [][]exp.RunResult
}

// kcyclesPerS is the pass's simulated cycles per wall second.
func (pp *paperPass) kcyclesPerS() float64 {
	return float64(pp.cycles) / 1e3 / pp.busy.Seconds()
}

func (p *paper) run(o options) (*report, error) {
	rep := &report{layers: map[string]metric{}}
	ex := exp.Exec{}
	sc, err := ex.Scale(paperScale)
	if err != nil {
		return nil, err
	}
	var exps []exp.Experiment
	var specs [][]exp.RunSpec
	for _, name := range p.experiments {
		e, err := exp.ExperimentByName(name)
		if err != nil {
			return nil, err
		}
		exps = append(exps, e)
		specs = append(specs, e.Spec(paperScale))
	}

	var first *paperPass
	// pass runs every spec once. When heap is set, each op's machine is
	// weighed once it has finished measuring; the collection's time is
	// left out of the op.
	pass := func(heap bool) *paperPass {
		pp := &paperPass{wall: map[string]time.Duration{}, expCyc: map[string]uint64{}}
		for ei, e := range exps {
			results := make([]exp.RunResult, len(specs[ei]))
			ok := true
			for si, spec := range specs[ei] {
				var setupEnd time.Time
				var gc time.Duration
				beat := func(done, total uint64) {
					switch {
					case done == 0:
						setupEnd = time.Now()
					case done == total && heap:
						t := time.Now()
						if h := liveHeap(); h > rep.heapBytes {
							rep.heapBytes = h
						}
						gc = time.Since(t)
					}
				}
				a0 := allocatedBytes()
				start := time.Now()
				var res exp.RunResult
				var err error
				asOp(func() { res, err = spec.Run(context.Background(), ex, exp.RunIO{Beat: beat}) })
				d := time.Since(start) - gc
				pp.allocs += allocatedBytes() - a0
				rep.attempted++
				if err != nil {
					rep.fail(1, "%s spec %d: %v", e.Name(), si, err)
					ok = false
					continue
				}
				if first != nil && res.Fingerprint != first.results[ei][si].Fingerprint {
					rep.fail(1, "%s spec %d: fingerprint differs from the first pass", e.Name(), si)
				}
				results[si] = res
				cycles := sc.Warmup + res.Cycles
				pp.opMs = append(pp.opMs, d.Seconds()*1e3)
				pp.setupS = append(pp.setupS, setupEnd.Sub(start).Seconds())
				pp.busy += d
				pp.cycles += cycles
				pp.wall[e.Name()] += d
				pp.expCyc[e.Name()] += cycles
			}
			pp.results = append(pp.results, results)
			table := ""
			if ok {
				t, err := e.Reduce(specs[ei], results)
				if err == nil {
					var b []byte
					b, err = t.JSON()
					table = string(b)
				}
				if err != nil {
					rep.fail(len(specs[ei]), "%s: reduce: %v", e.Name(), err)
				}
			}
			if first != nil && table != first.tables[ei] {
				rep.fail(len(specs[ei]), "%s: table differs from the first pass", e.Name())
			}
			pp.tables = append(pp.tables, table)
		}
		if first == nil {
			first = pp
		}
		return pp
	}

	// Whole passes until the budget is spent, at least one per phase.
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	phase := func(heap bool) []*paperPass {
		var ps []*paperPass
		start := time.Now()
		for len(ps) == 0 || time.Since(start) < budget {
			ps = append(ps, pass(heap))
		}
		return ps
	}
	untraced := phase(!o.trace)
	// Op statistics and throughput are taken per pass and their medians
	// reported, so they do not depend on how many passes fit the budget.
	var cycles, allocs uint64
	var p50s, tails, kcycs []float64
	for _, pp := range untraced {
		sum := summarize(pp.opMs)
		rep.ops = sum
		p50s = append(p50s, sum.p50)
		tails = append(tails, sum.tail)
		kcycs = append(kcycs, pp.kcyclesPerS())
		rep.setupS = append(rep.setupS, pp.setupS...)
		cycles += pp.cycles
		allocs += pp.allocs
	}
	rep.ops.p50, rep.ops.tail = median(p50s), median(tails)
	rep.kcyclesPerS = median(kcycs)
	rep.digest = digestOf(first.tables...)
	// The share error of the runs under PABST alone: the other modes are
	// the paper's baselines, which are meant to miss the entitlement.
	var errSum float64
	var errN int
	for ei := range exps {
		for si, spec := range specs[ei] {
			pabstOnly := (spec.Mode == "" || spec.Mode == "pabst") && spec.Policy == "" && spec.Fault == ""
			if want := exp.BenchEntitledHi(spec.Bench); want > 0 && pabstOnly {
				errSum += math.Abs(first.results[ei][si].ShareHi - want)
				errN++
			}
		}
	}
	if errN > 0 {
		rep.shareErr = errSum / float64(errN)
	}
	if !o.trace {
		return rep, nil
	}

	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	traced := phase(false)
	attr, err := prof.stop()
	if err != nil {
		return nil, err
	}

	var tracedKcycs []float64
	for _, pp := range traced {
		tracedKcycs = append(tracedKcycs, pp.kcyclesPerS())
	}
	rep.put("trace.overhead", rep.kcyclesPerS/median(tracedKcycs)-1)
	rep.putShares(attr)
	rep.put("runtime.alloc_kb_per_mcycle", float64(allocs)/1e3/(float64(cycles)/1e6))
	rep.put("soc.warmup_s", median(rep.setupS))

	// Modelled metrics: means over the first pass's runs.
	var ipcHi, ipcLo, bus float64
	var nLo int
	var n int
	for ei := range exps {
		for _, r := range first.results[ei] {
			n++
			bus += r.BusUtil
			if len(r.IPC) > 0 {
				ipcHi += r.IPC[0]
			}
			if len(r.IPC) > 1 {
				ipcLo += r.IPC[1]
				nLo++
			}
		}
	}
	rep.put("cpu.ipc.hi", ipcHi/float64(n))
	rep.put("cpu.ipc.lo", ipcLo/math.Max(1, float64(nLo)))
	rep.put("dram.bus_util", bus/float64(n))
	rep.put("qos.share_err", rep.shareErr)
	rep.put("sim_digest", float64(rep.digest))
	rep.putPaperExps(untraced)
	return rep, nil
}

// putPaperExps adds each paper experiment's wall time per pass and
// simulated throughput over the given passes.
func (r *report) putPaperExps(passes []*paperPass) {
	for _, name := range paperExperiments {
		var wall time.Duration
		var cyc uint64
		for _, pp := range passes {
			wall += pp.wall[name]
			cyc += pp.expCyc[name]
		}
		if wall > 0 {
			r.put("exp."+name+".wall_s", wall.Seconds()/float64(len(passes)))
			r.put("exp."+name+".kcycles_per_s", float64(cyc)/1e3/wall.Seconds())
		}
	}
}
