// Command racebench is the repository's benchmark. One process runs one
// named workload in-process through the public APIs of the detection
// stack, checks that its outputs are correct, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 1.93, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the run records spans around the calls
// into each layer and prints the per-layer metrics instead, writing the
// spans to <out>/<workload>.spans.jsonl. bench/README.md lists the
// workloads, the metric-to-layer map and the span format.
//
// Usage, from the repository root (bench/run.sh builds the binary and
// passes these flags through):
//
//	racebench -workload nightly -seed 1 -seconds 25 -trace 0
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two tables
// below must match BENCHMARK.json; the smoke test checks that they do.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"live_heap_mib", "MiB"},
	{"recall", "ratio"},
}

var perLayer = []metricDef{
	{"bench.trace_overhead_ratio", "ratio"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.decode_allocs_per_event", "count"},
	{"trace.bytes_per_event", "B"},
	{"trace.window_ns_per_event", "ns"},
	{"detector.ns_per_event", "ns"},
	{"detector.allocs_per_event", "count"},
	{"detector.evictions_per_kevent", "count"},
	{"detector.reloads_per_kevent", "count"},
	{"detector.live_pages", "count"},
	{"detector.fast_path_read_ratio", "ratio"},
	{"corpus.fold_us_per_report", "us"},
	{"stream.ingest_ns_per_event", "ns"},
	{"stream.unaccounted_ns_per_event", "ns"},
	{"sweep.campaign_ms_per_night", "ms"},
	{"sweep.alloc_kb_per_execution", "KB"},
	{"corpus.observe_us_per_execution", "us"},
	{"corpus.merge_us_per_shard", "us"},
	{"core.run_us_per_execution", "us"},
	{"sched.run_us_per_execution", "us"},
	{"detector.replay_us_per_execution", "us"},
	{"trace.events_per_execution", "count"},
	{"corpus.append_ms_per_night", "ms"},
	{"corpus.diff_ms_per_night", "ms"},
	{"corpus.snapshot_ms", "ms"},
	{"corpus.store_mib", "MiB"},
	{"corpus.open_ms", "ms"},
	{"service.read_capacity_rps", "1/s"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.read_hit_p50_ms", "ms"},
	{"service.read_miss_p50_ms", "ms"},
	{"service.full_read_p50_ms", "ms"},
	{"service.read_p90_ms", "ms"},
	{"service.read_p99_ms", "ms"},
	{"service.handler_hit_us", "us"},
	{"service.handler_miss_unit_us", "us"},
	{"service.handler_miss_listing_ms", "ms"},
	{"service.ingest_ns_per_event", "ns"},
	{"service.write_p50_ms", "ms"},
	{"service.nightly_post_ms", "ms"},
	{"service.generations", "count"},
	{"bench.gen_late_ms_p99", "ms"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"ingest-resident": runIngestResident,
	"ingest-evict":    runIngestEvict,
	"nightly":         runNightly,
	"serve":           runServe,
}

// Every workload repeats its set-up at least setupReps times and for at
// least setupMin (a tenth of the run, if that is shorter), and reports
// the median, so one slow repetition does not move setup_s and a set-up
// of a few milliseconds is still measured over many repetitions.
const (
	setupReps = 3
	setupMin  = time.Second
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// scale multiplies every input size; the smoke test runs at 0.01.
	scale float64
	// out holds the run's scratch files and the span output.
	out string
}

// scaled sizes an input count by the run's scale, never below min.
func (c config) scaled(n, min int) int {
	return max(int(float64(n)*c.scale), min)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench accumulates one run's operations, checks and metrics.
type bench struct {
	cfg       config
	dir       string  // scratch directory, removed when the run ends
	tr        *tracer // nil unless -trace 1
	attempted int64
	failed    int64
	problems  []string
	values    map[string]float64
	notes     map[string]string
	digests   []string
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.problem("%v", err)
	}
}

// check records a failed correctness check; it reports ok.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if !ok {
		b.problem(format, args...)
	}
	return ok
}

// problem keeps the first few failure messages for the report.
func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	} else if len(b.problems) == 20 {
		b.problems = append(b.problems, "(further problems suppressed)")
	}
}

// set records a metric value with an optional note, such as the
// sample count behind a percentile.
func (b *bench) set(name string, v float64, note string) {
	b.values[name] = v
	if note != "" {
		b.notes[name] = note
	}
}

// digest records a correctness digest line: identical inputs must
// reproduce it exactly.
func (b *bench) digest(name, sum string) {
	b.digests = append(b.digests, fmt.Sprintf("digest %-14s sha256:%s", name, sum))
}

// setup runs fn repeatedly and records the median time as setup_s.
// Before every repetition but the first, undo (if set) releases what
// the previous one built, and the heap is collected, both untimed, so
// that each repetition starts as the one real set-up does and not
// amid its predecessor's garbage.
func (b *bench) setup(fn, undo func() error) error {
	var ds []time.Duration
	start := time.Now()
	for len(ds) < setupReps || time.Since(start) < min(setupMin, b.cfg.seconds/10) {
		if len(ds) > 0 {
			if undo != nil {
				if err := undo(); err != nil {
					return fmt.Errorf("set-up: %w", err)
				}
			}
			runtime.GC()
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0))
	}
	b.set("setup_s", median(ds).Seconds(), fmt.Sprintf("median of %d", len(ds)))
	return nil
}

func main() {
	var cfg config
	var seconds float64
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 25, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records layer spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplier on every input size")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "racebench-out"), "directory for scratch files and span output")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = traceFlag == 1
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || cfg.scale <= 0 || seconds <= 0 {
		fmt.Fprintln(os.Stderr, "racebench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	res, report, err := run(cfg)
	os.Stdout.WriteString(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "racebench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and returns its result and the
// human-readable report that precedes the JSON line. An error means the
// run could not produce a result at all.
func run(cfg config) (result, string, error) {
	runWorkload, ok := workloads[cfg.workload]
	if !ok {
		return result{}, "", fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return result{}, "", err
	}
	dir, err := os.MkdirTemp(cfg.out, cfg.workload+"-")
	if err != nil {
		return result{}, "", err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, dir: dir, values: map[string]float64{}, notes: map[string]string{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	if err := runWorkload(b); err != nil {
		return result{}, "", fmt.Errorf("%s: %w", cfg.workload, err)
	}
	var rep strings.Builder
	fmt.Fprintf(&rep, "racebench %s seed=%d seconds=%g trace=%t scale=%g nproc=%d\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, cfg.scale, runtime.NumCPU())
	defs := endToEnd
	if b.tr != nil {
		defs = perLayer
		path := filepath.Join(cfg.out, cfg.workload+".spans.jsonl")
		if err := b.tr.write(path); err != nil {
			return result{}, "", err
		}
		fmt.Fprintf(&rep, "spans: %d written to %s\n", len(b.tr.spans), path)
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := b.values[d.name]
		note := b.notes[d.name]
		if !ok {
			if b.tr == nil {
				return result{}, "", fmt.Errorf("%s: end-to-end metric %s was not measured", cfg.workload, d.name)
			}
			// A per-layer metric of a layer this workload never enters.
			note = "layer not used by this workload"
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(&rep, "%-34s %16.6f %-6s %s\n", d.name, v, d.unit, note)
	}
	for _, d := range b.digests {
		fmt.Fprintln(&rep, d)
	}
	if b.attempted == 0 {
		b.problem("no operation was attempted")
	}
	for _, p := range b.problems {
		fmt.Fprintln(&rep, "FAIL:", p)
	}
	res.Correct = len(b.problems) == 0 && b.failed == 0
	fmt.Fprintf(&rep, "attempted=%d failed=%d correct=%t\n", res.Attempted, res.Failed, res.Correct)
	return res, rep.String(), nil
}

// median returns the middle sample (the lower one of an even count).
func median[T cmp.Ordered](xs []T) T { return percentile(xs, 0.5) }

// percentile returns the nearest-rank p-quantile of xs, sorting xs.
func percentile[T cmp.Ordered](xs []T, p float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	slices.Sort(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// tail names the highest percentile of ds that has at least ten samples
// beyond it, with its value, for the note beside a median.
func tail(ds []time.Duration) string {
	if len(ds) < 20 {
		return ""
	}
	p := math.Floor(1000*(1-10/float64(len(ds)))) / 10
	return fmt.Sprintf(", p%g %.3f ms", p, ms(percentile(ds, p/100)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// liveHeapMiB collects garbage and returns the heap still reachable,
// in MiB. Workloads call it between operations, outside any timed
// region, while the state an operation built is still referenced: its
// value does not depend on when the collector happened to run, so it
// repeats from run to run where a sampled HeapAlloc peak does not.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocCounter reads the process-wide heap allocation counters.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// read returns the cumulative allocated objects and bytes.
func (a *allocCounter) read() (objects, bytes int64) {
	metrics.Read(a.s)
	return int64(a.s[0].Value.Uint64()), int64(a.s[1].Value.Uint64())
}
