// Command perfbench is the repository benchmark: it runs one named
// workload through the public simulator API, checks every op's output,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fig5-sat --seed 1 --seconds 12 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// state names a directory where each (workload, seed)'s digest is
	// kept, so a later run that simulates differently fails its check;
	// empty disables the cross-run comparison.
	state string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload measured in one run.
type report struct {
	// ops summarizes the untraced ops' wall times.
	ops opSummary
	// kcyclesPerS is the untraced simulated throughput.
	kcyclesPerS float64

	attempted, failed int
	// failures describes the first few failed checks.
	failures []string

	// setupS holds each set-up's wall time (build plus warm-up).
	setupS []float64
	// heapBytes is the peak live heap observed after a collection.
	heapBytes uint64
	// digest identifies the simulated outcome of the run's fixed digest
	// window; equal seeds must give equal digests.
	digest uint64
	// shareErr is |delivered - entitled| of the high class (0 when the
	// workload has no share target).
	shareErr float64

	// layers holds the per-layer metrics of a traced run.
	layers map[string]metric
}

// fail records a failed check on n ops.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// put records a per-layer metric; its unit comes from layerUnits.
func (r *report) put(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	r.layers[name] = metric{v, unit}
}

// endToEndUnits and layerUnits are every metric the benchmark reports,
// with its unit; BENCHMARK.json at the repository root declares the
// same names. A traced run reports every per-layer metric: one that a
// workload cannot observe reads 0 (README.md lists which).
var endToEndUnits = map[string]string{
	"sim_kcycles_per_s": "kcycles/s",
	"op_ms_p50":         "ms",
	"op_ms_tail":        "ms",
	"setup_s":           "s",
	"heap_mb":           "MB",
}

var layerUnits = map[string]string{
	"sim.dispatch_share":          "fraction",
	"sim.ns_per_visit":            "ns",
	"sim.visits_per_kcycle":       "count",
	"sim.tile_occupancy":          "fraction",
	"sim.late_wakes":              "count",
	"tile.share":                  "fraction",
	"tile.ns_per_visit":           "ns",
	"cache.access_share":          "fraction",
	"slice.share":                 "fraction",
	"slice.ns_per_visit":          "ns",
	"mc.share":                    "fraction",
	"mc.ns_per_visit":             "ns",
	"dram.ns_per_request":         "ns",
	"epoch.share":                 "fraction",
	"stats.share":                 "fraction",
	"build.share":                 "fraction",
	"other.share":                 "fraction",
	"runtime.gc_share":            "fraction",
	"runtime.heap_kb_per_tile":    "KB",
	"runtime.alloc_kb_per_mcycle": "KB",
	"profile.samples":             "count",
	"trace.overhead":              "fraction",
	"pabst.build_ms":              "ms",
	"soc.warmup_s":                "s",
	"soc.snapshot_us":             "us",
	"exp.fig1.wall_s":             "s",
	"exp.fig1.kcycles_per_s":      "kcycles/s",
	"exp.fig5.wall_s":             "s",
	"exp.fig5.kcycles_per_s":      "kcycles/s",
	"exp.fig7.wall_s":             "s",
	"exp.fig7.kcycles_per_s":      "kcycles/s",
	"exp.fig11.wall_s":            "s",
	"exp.fig11.kcycles_per_s":     "kcycles/s",
	"cpu.ipc.hi":                  "ipc",
	"cpu.ipc.lo":                  "ipc",
	"cpu.miss_latency.hi":         "cycles",
	"cpu.miss_latency.lo":         "cycles",
	"dram.reads_per_kcycle":       "1/kcycle",
	"dram.writes_per_kcycle":      "1/kcycle",
	"dram.bus_util":               "fraction",
	"dram.read_latency":           "cycles",
	"dram.priority_inversions":    "count",
	"qos.share_err":               "fraction",
	"sim_digest":                  "id",
}

// workload is one named benchmark workload.
type workload interface {
	name() string
	run(o options) (*report, error)
}

func workloads() []workload {
	return []workload{fig5Sat(), coloWrite(), meshBursty(), paperQuick()}
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name() == name {
			return w, nil
		}
		names = append(names, w.name())
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: fig5-sat, colo-write, mesh-bursty-256 or paper-quick")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; derives every generator seed and stream offset")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured wall-clock seconds (split evenly between the untraced and traced phases with --trace 1)")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a profiled run, 0 end-to-end metrics")
	flag.StringVar(&o.state, "state", "", "directory keeping each workload and seed's digest across runs (empty: off)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	o.trace = trace == 1
	w, err := workloadByName(o.workload)
	if err != nil {
		fatal(err)
	}
	res, err := measure(w, o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// measure runs the workload, prints host metadata and a readable
// summary to out, and returns the result line.
func measure(w workload, o options, out io.Writer) (*result, error) {
	host := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc":       envOr("GOGC", "default"),
		"go":         runtime.Version(),
		"git":        envOr("PERFBENCH_GIT_REV", "unknown"),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	hb, _ := json.Marshal(host)
	fmt.Fprintf(out, "# host %s\n", hb)

	rep, err := w.run(o)
	if err != nil {
		return nil, err
	}
	if err := checkDigest(o, rep); err != nil {
		return nil, err
	}

	res := &result{Attempted: rep.attempted, Failed: rep.failed}
	if rep.attempted < 1 {
		return nil, fmt.Errorf("%s: no ops ran", o.workload)
	}
	res.Correct = rep.failed == 0
	for _, f := range rep.failures {
		fmt.Fprintf(out, "# FAILED %s\n", f)
	}
	if o.trace {
		for name, unit := range layerUnits {
			if _, ok := rep.layers[name]; !ok {
				rep.layers[name] = metric{0, unit}
			}
		}
		res.Metrics = rep.layers
	} else {
		res.Metrics = endToEnd(rep)
		fmt.Fprintf(out, "# op_ms_tail is p%.1f of %d ops; failed_frac %.4f (%d of %d); share_err %.4f; sim_digest %d\n",
			rep.ops.pct, rep.ops.n, float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted, rep.shareErr, rep.digest)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "# %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	return res, nil
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(rep *report) map[string]metric {
	values := map[string]float64{
		"sim_kcycles_per_s": rep.kcyclesPerS,
		"op_ms_p50":         rep.ops.p50,
		"op_ms_tail":        rep.ops.tail,
		"setup_s":           median(rep.setupS),
		"heap_mb":           float64(rep.heapBytes) / 1e6,
	}
	m := map[string]metric{}
	for name, v := range values {
		m[name] = metric{v, endToEndUnits[name]}
	}
	return m
}

// opSummary is the median op time, the tail — the highest order
// statistic with at least ten samples above it — with its percentile
// rank, and the number of ops.
type opSummary struct {
	p50, tail, pct float64
	n              int
}

// summarize computes an opSummary; with ten or fewer samples the tail
// is the maximum.
func summarize(ms []float64) opSummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return opSummary{}
	}
	k := n - 1
	if n > 10 {
		k = n - 11
	}
	return opSummary{p50: median(s), tail: s[k], pct: 100 * float64(k+1) / float64(n), n: n}
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// checkDigest compares the run's digest with the one an earlier run of
// the same workload and seed recorded in the state directory, recording
// it when none exists. A mismatch fails every op of the run.
func checkDigest(o options, rep *report) error {
	if o.state == "" {
		return nil
	}
	if err := os.MkdirAll(o.state, 0o755); err != nil {
		return fmt.Errorf("digest state: %w", err)
	}
	path := filepath.Join(o.state, fmt.Sprintf("%s-seed%d.digest", o.workload, o.seed))
	want := fmt.Sprintf("%d\n", rep.digest)
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != want {
			rep.fail(rep.attempted-rep.failed, "sim_digest %s differs from an earlier run's %s",
				strings.TrimSpace(want), strings.TrimSpace(string(prev)))
		}
		return nil
	case os.IsNotExist(err):
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			return fmt.Errorf("digest state: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("digest state: %w", err)
	}
}

// digestOf hashes strings into a 48-bit digest, which a JSON number
// carries exactly.
func digestOf(parts ...string) uint64 {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	var b [8]byte
	copy(b[2:], h.Sum(nil)[:6])
	return binary.BigEndian.Uint64(b[:])
}

// splitmix64 derives a stream of generator seeds from the workload seed.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Heap readings from runtime/metrics.
var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	metrics.Read(heapSamples)
	return heapSamples[0].Value.Uint64()
}

// allocatedBytes returns the cumulative bytes allocated on the heap.
func allocatedBytes() uint64 {
	metrics.Read(heapSamples)
	return heapSamples[1].Value.Uint64()
}
