// Command perfbench is the repository's benchmark. It generates the
// paper-scale world, drives one workload through the same
// public functions cmd/explorer and examples/quickstart call, checks
// the outputs against the repository's oracles, and prints one JSON
// result line.
//
//	perfbench --workload explore|follow|reproduce --seed N --seconds S --trace 0|1 [--world-seed W]
//
// --seed draws explore's query sequence; the world is PaperWorld(W),
// W = 7 unless --world-seed says otherwise.
//
// With --trace 0 the result carries the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 the same run records a span around
// every call into a layer, prints a per-layer table, writes the spans
// to .bench_build/spans/, and reports the per-layer metrics instead.
// Run it from the repository root (perfbench/run.sh builds it there);
// NOTES.md explains the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"peoplesnet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// paperSeed is the world every run measures by default: the paper-scale
// world the repository's documentation describes (15,412 blocks over
// heights 0–960,422). Worlds differ in size and density from seed to
// seed, so drawing the world from --seed would make run-to-run spread
// measure the worlds rather than the program; --seed varies the
// operations instead.
const paperSeed = 7

// setupReps is how many times a run sets its workload up from
// scratch; setup_s is the median. Only the last set-up is measured.
const setupReps = 3

// config is what every workload receives.
type config struct {
	seed      uint64 // draws the operation sequence
	worldSeed uint64 // generates the world
	seconds   int
	// world picks the world scale; tests swap in SmallWorld.
	world func(seed uint64) peoplesnet.WorldConfig
	tr    *tracer // nil for the untraced run
}

// outcome is what a workload reports back. Durations are raw samples;
// run turns them into metrics.
type outcome struct {
	setups []time.Duration
	// fresh holds freshness samples: from a block being available at
	// the producer to it being visible in every consumer.
	fresh []time.Duration
	lat   []time.Duration
	// ops is the number of measured operations attempted; failed how
	// many of them errored, degraded or returned a wrong answer.
	ops    int
	failed int
	phase  phaseStats
	// layer holds per-layer values that are not span statistics.
	layer map[string]float64
	// notes are extra lines for the run record (composition, checks).
	notes []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 10 {
		o.notes = append(o.notes, "FAIL "+fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"explore":   runExplore,
	"follow":    runFollow,
	"reproduce": runReproduce,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "explore | follow | reproduce")
	seed := fs.Uint64("seed", 1, "seed for the operation sequence")
	worldSeed := fs.Uint64("world-seed", paperSeed, "seed for the world")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload explore|follow|reproduce, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{seed: *seed, worldSeed: *worldSeed, seconds: *seconds, world: peoplesnet.PaperWorld}
	if *trace == 1 {
		cfg.tr = newTracer()
	}

	calStart := calibrate()
	out, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	calEnd := calibrate()

	e2e := endToEnd(out)
	layer := perLayer(out, cfg.tr, (calStart+calEnd)/2)
	record := map[string]any{
		"workload":         *name,
		"seed":             *seed,
		"world_seed":       *worldSeed,
		"trace":            *trace,
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"ops":              out.ops,
		"samples":          map[string]int{"latency": len(out.lat), "freshness": len(out.fresh), "setup": len(out.setups)},
		"latency_ms":       percentiles(out.lat),
		"freshness_ms":     percentiles(out.fresh),
		"host.calib_ms":    []float64{ms(calStart), ms(calEnd)},
		"runtime":          runtimeMetrics(out),
		"measured_seconds": out.phase.elapsed.Seconds(),
		"cpu_seconds":      out.phase.cpu.Seconds(),
		"setups_s":         inSeconds(out.setups),
		"end_to_end":       e2e,
		"layer":            out.layer,
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	if cfg.tr != nil {
		cfg.tr.writeTable(stdout, out.ops)
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := cfg.tr.dump(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: span dump:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# %d spans written to %s\n", len(cfg.tr.spans), path)
	}
	rec, _ := json.Marshal(record)
	fmt.Fprintf(stdout, "# record %s\n", rec)

	want, values := spec.EndToEnd, e2e
	if cfg.tr != nil {
		want, values = spec.PerLayer, layer
	}
	metrics := map[string]metricOut{}
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok && cfg.tr == nil {
			fmt.Fprintf(stderr, "perfbench: %s reports no %s\n", *name, m.Name)
			return 1
		}
		// A per-layer metric of a layer this workload never calls
		// reads 0.
		metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	res, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{out.failed == 0 && out.ops > 0, max(out.ops, 1), out.failed, metrics})
	fmt.Fprintln(stdout, string(res))
	return 0
}

// specFile is the benchmark definition, read from the directory the
// benchmark runs in (the repository root); it lists the metrics to
// report.
const specFile = "BENCHMARK.json"

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 {
		return s, errors.New(path + ": no end_to_end metrics")
	}
	return s, nil
}

// endToEnd turns an outcome into the end-to-end metrics.
func endToEnd(o *outcome) map[string]float64 {
	ops := float64(max(o.ops, 1))
	return map[string]float64{
		"setup_s":          nearestRank(o.setups, 50).Value.Seconds(),
		"throughput_ops_s": ops / o.phase.elapsed.Seconds(),
		"latency_p50_ms":   ms(nearestRank(o.lat, 50).Value),
		"latency_p99_ms":   ms(nearestRank(o.lat, 99).Value),
		"freshness_p50_ms": ms(nearestRank(o.fresh, 50).Value),
		"freshness_p90_ms": ms(nearestRank(o.fresh, 90).Value),
		"cpu_ms_per_op":    ms(o.phase.cpu) / ops,
		"heap_mb":          o.phase.heapMB,
		"ok_frac":          (ops - float64(o.failed)) / ops,
	}
}

func runtimeMetrics(o *outcome) map[string]float64 {
	ops := float64(max(o.ops, 1))
	return map[string]float64{
		"runtime.alloc_mb_per_op":    o.phase.allocMB / ops,
		"runtime.gc_per_op":          float64(o.phase.gcs) / ops,
		"runtime.gc_pause_ms_per_op": ms(o.phase.pause) / ops,
	}
}

// percentiles lists nearest-rank percentiles of samples, for the run
// record.
func percentiles(samples []time.Duration) map[string]float64 {
	out := map[string]float64{}
	for _, p := range []float64{50, 75, 90, 95, 99} {
		out[fmt.Sprintf("p%g", p)] = ms(nearestRank(samples, p).Value)
	}
	return out
}

func inSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// perLayer assembles the per-layer metrics: the workload's own values,
// the runtime counters and host canary, and statistics over the spans
// named by each metric:
//
//	<span>.p50_ms, .p99_ms, .p50_us, .p99_us  nearest-rank over that span in the measured operations
//	<span>_s                                   median of that span over the set-up repetitions
//	<layer>.self_ms_per_op                     the layer's self time per measured op
func perLayer(o *outcome, tr *tracer, calib time.Duration) map[string]float64 {
	out := map[string]float64{"host.calib_ms": ms(calib)}
	for k, v := range runtimeMetrics(o) {
		out[k] = v
	}
	for k, v := range o.layer {
		out[k] = v
	}
	if tr == nil {
		return out
	}
	ops := float64(max(o.ops, 1))
	for layer, d := range tr.layerSelf() {
		out[layer+".self_ms_per_op"] = ms(d) / ops
	}
	names := map[string]bool{}
	for _, s := range tr.spans {
		names[s.Name] = true
	}
	for n := range names {
		if durs := tr.durations(n, false); len(durs) > 0 {
			out[n+".p50_ms"] = ms(nearestRank(durs, 50).Value)
			out[n+".p99_ms"] = ms(nearestRank(durs, 99).Value)
			out[n+".p50_us"] = us(nearestRank(durs, 50).Value)
			out[n+".p99_us"] = us(nearestRank(durs, 99).Value)
		}
		if durs := tr.durations(n, true); len(durs) > 0 {
			out[n+"_s"] = nearestRank(durs, 50).Value.Seconds()
		}
	}
	measured := 0
	for _, s := range tr.spans {
		if s.Op >= 0 {
			measured++
		}
	}
	out["trace.spans_per_op"] = float64(measured) / ops
	out["trace.throughput_ops_s"] = endToEnd(o)["throughput_ops_s"]
	return out
}

// repeatSetup builds a workload's environment setupReps times from
// scratch, releasing each before building the next, and returns the
// last one with every set-up's wall time.
func repeatSetup[E any](tr *tracer, build func(op, root int) (E, error), release func(E)) (E, []time.Duration, error) {
	var env E
	var times []time.Duration
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release(env)
		}
		runtime.GC()
		op := -(i + 1)
		start := time.Now()
		root := tr.begin(op, "setup", -1)
		e, err := build(op, root)
		tr.end(root)
		if err != nil {
			return env, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(start))
		env = e
	}
	return env, times, nil
}

// phaseStats is what the measured phase cost the process.
type phaseStats struct {
	elapsed time.Duration
	cpu     time.Duration // user+sys of every goroutine, GC included
	heapMB  float64       // live heap after a forced GC at the end
	allocMB float64
	gcs     uint32
	pause   time.Duration
}

// warmUpShare: explore and follow run one operation untimed for every
// warmUpShare they measure, first, so the router cache and the
// consumers are in their steady state when measuring begins.
const warmUpShare = 5

// phase measures wall time, process CPU and runtime counters over the
// measured operations. It starts from a freshly collected heap, so
// every run begins in the same GC state. Correctness checks run
// between pause and resume, so their cost is left out.
type phase struct {
	start       time.Time
	cpu0        time.Duration
	ms0         runtime.MemStats
	pausedAt    time.Time
	pausedCPU   time.Duration
	pausedWall  time.Duration
	excludedCPU time.Duration
}

func startPhase() *phase {
	runtime.GC()
	p := &phase{}
	runtime.ReadMemStats(&p.ms0)
	p.cpu0 = processCPU()
	p.start = time.Now()
	return p
}

func (p *phase) pause() {
	p.pausedAt = time.Now()
	p.pausedCPU = processCPU()
}

func (p *phase) resume() {
	p.pausedWall += time.Since(p.pausedAt)
	p.excludedCPU += processCPU() - p.pausedCPU
}

// active returns the wall and CPU time spent in the phase so far,
// pauses excluded.
func (p *phase) active() (wall, cpu time.Duration) {
	return time.Since(p.start) - p.pausedWall, processCPU() - p.cpu0 - p.excludedCPU
}

// stop ends the phase. Wall and CPU time are read
// before the forced GC that measures the live heap, so the GC is not
// charged to the phase.
func (p *phase) stop() phaseStats {
	var st phaseStats
	st.elapsed, st.cpu = p.active()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st.allocMB = float64(m.TotalAlloc-p.ms0.TotalAlloc) / 1e6
	st.gcs = m.NumGC - p.ms0.NumGC
	st.pause = time.Duration(m.PauseTotalNs - p.ms0.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&m)
	st.heapMB = float64(m.HeapAlloc) / 1e6
	return st
}

// processCPU is the user+sys time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrate times a fixed standard-library CPU loop (SHA-256 over
// 16 MiB). It exercises no repository code, so a change in it between
// runs is host drift, not a regression.
func calibrate() time.Duration {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	h := sha256.New()
	start := time.Now()
	for i := 0; i < 256; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	return time.Since(start)
}

// waitUntil polls cond every 100µs until it holds or the timeout
// passes. The benchmark's client observes progress the way a caller
// of these APIs would: by reading heights.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// classShares describes where the given percentiles of a run's
// samples fall: the class of each, and how much of the surrounding band
// of cumulative share (5 points either side, clipped at 100) belongs to
// that class. A band held mostly by one class means the percentile sits
// inside that class, away from a boundary where the distribution jumps.
func classShares(lat []time.Duration, class []string, pcts ...float64) string {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return lat[idx[a]] < lat[idx[b]] })
	n := float64(len(idx))
	var at []string
	for _, p := range pcts {
		lo, hi := p-5, min(p+5, 100)
		c := class[idx[max(int(math.Ceil(p/100*n))-1, 0)]]
		same, all := 0, 0
		for r := int(lo / 100 * n); r < int(hi/100*n) && r < len(idx); r++ {
			all++
			if class[idx[r]] == c {
				same++
			}
		}
		at = append(at, fmt.Sprintf("p%g in %s (%.0f%% of the %g-%g%% band)", p, c, 100*float64(same)/float64(max(all, 1)), lo, hi))
	}
	count := map[string]int{}
	for _, c := range class {
		count[c]++
	}
	var parts []string
	for c, k := range count {
		parts = append(parts, fmt.Sprintf("%s=%.1f%%", c, 100*float64(k)/n))
	}
	sort.Strings(parts)
	return fmt.Sprintf("%s; shares %s", strings.Join(at, ", "), strings.Join(parts, " "))
}
