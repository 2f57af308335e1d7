package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func sameUnits(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if got[name] != unit {
			t.Errorf("%s %s: unit %q, BENCHMARK.json declares %q", what, name, got[name], unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s %s is not declared in BENCHMARK.json", what, name)
		}
	}
}

func TestMetricNamesMatchDeclaration(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, units := range []map[string]string{endToEndUnits, layerUnits} {
		for name := range units {
			if !valid.MatchString(name) {
				t.Errorf("metric name %q does not match %s", name, valid)
			}
		}
	}
	e2e, layer := declared(t)
	sameUnits(t, "end-to-end metric", endToEndUnits, e2e)
	sameUnits(t, "per-layer metric", layerUnits, layer)
}

// testWorkloads is every workload, with paper-quick cut to one
// experiment so the test stays short.
func testWorkloads() []workload {
	var ws []workload
	for _, w := range workloads() {
		if p, ok := w.(*paper); ok {
			w = &paper{id: p.id, experiments: []string{"fig5"}}
		}
		ws = append(ws, w)
	}
	return ws
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layer := declared(t)
	for _, w := range testWorkloads() {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.name(), seed: 7, trace: trace}
			res, err := measure(w, o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name(), trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name(), trace, res.Correct, res.Failed, res.Attempted)
			}
			want := e2e
			if trace {
				want = layer
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.name(), trace, name, m.Value)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: emitted %v", w.name(), trace, keys(res.Metrics))
			}
			sameUnits(t, w.name()+" metric", got, want)
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.name(), name, m.Value)
					}
				}
			}
		}
	}
}

func TestAttributionSharesSumToOne(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a simulation")
	}
	rep, err := fig5Sat().run(options{workload: "fig5-sat", seed: 3, seconds: 2, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range layers {
		name, ok := shareNames[l]
		if !ok {
			name = l + ".share"
		}
		sum += rep.layers[name].Value
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("layer shares sum to %v", sum)
	}
	if rep.layers["profile.samples"].Value < 20 {
		t.Errorf("only %v profile samples", rep.layers["profile.samples"].Value)
	}
	if tile := rep.layers["tile.share"].Value; tile < 0.2 {
		t.Errorf("tile.share %v: the saturated 32-tile machine should spend most time in tiles", tile)
	}
}

func TestLayerOfPicksNearestComponentFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"pabst/internal/cache.(*Cache).Access", "pabst/internal/soc.(*Tile).tick", "pabst/internal/sim.(*Kernel).Run"}, "tile"},
		{[]string{"pabst/internal/soc.(*System).deliverResponse", "pabst/internal/dram.(*Controller).Tick", "pabst/internal/soc.(*System).tick"}, "mc"},
		{[]string{"runtime.mallocgc", "pabst/internal/soc.(*Slice).tick", "pabst/internal/soc.(*Tile).tick"}, "slice"},
		{[]string{"pabst/internal/sim.(*Kernel).runEvents", "pabst/internal/soc.(*System).RunContext"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"pabst/internal/soc.(*System).sampleTick", "pabst/internal/sim.(*Kernel).Run"}, "stats"},
		{[]string{"pabst/internal/soc.(*System).drainEpochQ"}, "epoch"},
		{[]string{"main.main"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestAttributeCountsOpsAndCollector(t *testing.T) {
	op := map[string]string{opLabel: "op"}
	p := &cpuProfile{samples: []sample{
		{stack: []string{"pabst/internal/soc.(*Tile).tick"}, count: 3, nanos: 30, labels: op},
		{stack: []string{"runtime.gcBgMarkWorker"}, count: 1, nanos: 10},
		{stack: []string{"main.(*machine).run"}, count: 5, nanos: 50}, // bookkeeping: left out
	}}
	a := attribute(p)
	if a.total != 40 || a.samples != 4 {
		t.Fatalf("total %d ns over %d samples, want 40 over 4", a.total, a.samples)
	}
	if a.share("tile") != 0.75 || a.share("runtime") != 0.25 {
		t.Errorf("tile %v runtime %v", a.share("tile"), a.share("runtime"))
	}
}

func TestSummarizeTail(t *testing.T) {
	var ms []float64
	for i := 30; i >= 1; i-- {
		ms = append(ms, float64(i))
	}
	s := summarize(ms)
	// 30 samples: the 20th smallest has exactly ten above it.
	if s.tail != 20 || s.p50 != 15.5 || s.n != 30 || math.Abs(s.pct-66.67) > 0.01 {
		t.Errorf("summarize = %+v", s)
	}
	if s := summarize([]float64{3, 1, 2}); s.tail != 3 || s.pct != 100 {
		t.Errorf("few samples: %+v, want the maximum", s)
	}
}
