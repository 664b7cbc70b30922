// Package gorace_test is the benchmark harness: one benchmark per
// table and figure in the paper's evaluation, plus the ablation
// benchmarks DESIGN.md calls out. See EXPERIMENTS.md for the mapping
// and for paper-vs-measured notes.
package gorace_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"gorace/internal/core"
	"gorace/internal/corpus"
	"gorace/internal/corpusgen"
	"gorace/internal/detector"
	"gorace/internal/explore"
	"gorace/internal/fleet"
	"gorace/internal/monorepo"
	"gorace/internal/patterns"
	"gorace/internal/pipeline"
	"gorace/internal/report"
	"gorace/internal/sched"
	"gorace/internal/staticcount"
	"gorace/internal/staticrace"
	"gorace/internal/stream"
	"gorace/internal/study"
	"gorace/internal/sweep"
	"gorace/internal/taxonomy"
	"gorace/internal/trace"
)

// --- E1: Table 1 — concurrency construct counts, Java vs Go ---

func BenchmarkTable1ConstructCounts(b *testing.B) {
	const lines = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var gc staticcount.GoCounts
		for _, f := range corpusgen.GenGoRepo(corpusgen.UberGoProfile, lines, 1) {
			c, err := staticcount.CountGoSource(f.Name, f.Content)
			if err != nil {
				b.Fatal(err)
			}
			gc.Add(c)
		}
		var jc staticcount.JavaCounts
		for _, f := range corpusgen.GenJavaRepo(corpusgen.UberJavaProfile, lines, 1) {
			jc.Add(staticcount.CountJavaSource(f.Content))
		}
		ratio := staticcount.PerMLoC(gc.PointToPoint(), gc.Lines) /
			staticcount.PerMLoC(jc.PointToPoint(), jc.Lines)
		if ratio < 3 || ratio > 4.5 {
			b.Fatalf("p2p ratio %.2f drifted from the paper's 3.7x", ratio)
		}
	}
}

// --- E2: Figure 1 — concurrency CDF per language ---

func BenchmarkFigure1ConcurrencyCDF(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series := fleet.RunExperiment(int64(i + 1))
		for _, s := range series {
			if s.Lang == "Go" && s.P50 != 2048 {
				b.Fatalf("Go p50 = %d, want 2048", s.P50)
			}
		}
	}
}

// --- E3: §3.3.1 — dedup hash under churn ---

func BenchmarkDedupPipeline(b *testing.B) {
	// Hash + dedup store throughput over a stream of reports with
	// line churn and order flips (the duplicates the scheme absorbs).
	races := manifestAllListings(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := report.NewDeduper()
		for _, r := range races {
			d.Add(r)
			// Flipped duplicate must be suppressed.
			d.Add(report.Race{First: r.Second, Second: r.First, Detector: r.Detector})
		}
		_, unique, _ := d.Stats()
		if unique == 0 {
			b.Fatal("no unique races")
		}
	}
}

// --- E4/E5: Figures 3 and 4 — deployment time series ---

func BenchmarkFigure3Outstanding(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := pipeline.DefaultConfig()
		cfg.Seed = int64(i + 1)
		o := pipeline.Run(cfg)
		if s := pipeline.FormatFigure3(o); len(s) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFigure4FoundFixed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := pipeline.DefaultConfig()
		cfg.Seed = int64(i + 1)
		o := pipeline.Run(cfg)
		last := o.Days[len(o.Days)-1]
		if last.CreatedCum <= last.ResolvedCum {
			b.Fatal("created must exceed resolved at the end (paper shape)")
		}
	}
}

// --- E6/E7: Tables 2 and 3 — category counts ---

func BenchmarkTable2GoPatternCounts(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := study.RunTable23(0.1, int64(i+1))
		if len(r.Table2) == 0 {
			b.Fatal("empty table 2")
		}
	}
}

func BenchmarkTable3AgnosticCounts(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := study.RunTable23(0.1, int64(i+1))
		if len(r.Table3) == 0 {
			b.Fatal("empty table 3")
		}
	}
}

// --- E8: §3.5 overhead — detector cost over the corpus ---

// mustDetector builds a detector from the registry; benchmarks treat
// lookup failure as a harness bug.
func mustDetector(b *testing.B, name string) detector.Detector {
	b.Helper()
	d, err := detector.New(name)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// corpusWorkload runs every corpus racy variant once under one seed.
func corpusWorkload(seed int64, ls ...trace.Listener) {
	for _, p := range patterns.All() {
		sched.Run(p.Racy, sched.Options{
			Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 16,
			Listeners: ls,
		})
	}
}

func BenchmarkDetectorOverheadNone(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		corpusWorkload(int64(i))
	}
}

func BenchmarkDetectorOverheadEpoch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		corpusWorkload(int64(i), mustDetector(b, "epoch"))
	}
}

func BenchmarkDetectorOverheadFastTrack(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		corpusWorkload(int64(i), mustDetector(b, "fasttrack"))
	}
}

func BenchmarkDetectorOverheadDJIT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		corpusWorkload(int64(i), mustDetector(b, "djit"))
	}
}

func BenchmarkDetectorOverheadEraser(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		corpusWorkload(int64(i), mustDetector(b, "eraser"))
	}
}

func BenchmarkDetectorOverheadHybrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		corpusWorkload(int64(i), mustDetector(b, "hybrid"))
	}
}

// --- E9: §3.2.1 — flakiness / schedule exploration ---

func BenchmarkFlakinessRandom(b *testing.B) {
	p, _ := patterns.ByID("waitgroup-add-inside")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		explore.Probe(p.Racy, "random", 20, int64(i), 1)
	}
}

func BenchmarkFlakinessPCT(b *testing.B) {
	p, _ := patterns.ByID("waitgroup-add-inside")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		explore.Probe(p.Racy, "pct", 20, int64(i), 1)
	}
}

func BenchmarkExhaustiveExploration(b *testing.B) {
	p, _ := patterns.ByID("capture-loop-index")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := explore.Exhaustive(p.Racy, 100)
		if res.Racy == 0 {
			b.Fatal("exploration lost the race")
		}
	}
}

// --- E8 (pure analysis cost): replay a recorded trace into each
// detector, isolating detector cost from the modeled scheduler. This
// is the number comparable to TSan's 2×–20× instrumentation overhead:
// events-with-detection vs events-without.

func recordHeavyTrace(b *testing.B) *trace.Recorder {
	b.Helper()
	return recordTrace(b, heavyProgram)
}

func recordTrace(b *testing.B, prog func(*sched.G)) *trace.Recorder {
	b.Helper()
	rec := &trace.Recorder{}
	sched.Run(prog, sched.Options{
		Strategy: sched.NewRandom(), Seed: 1, MaxSteps: 1 << 18,
		Listeners: []trace.Listener{rec},
	})
	if len(rec.Events) == 0 {
		b.Fatal("empty trace")
	}
	return rec
}

func BenchmarkReplayBaselineNoop(b *testing.B) {
	rec := recordHeavyTrace(b)
	noop := trace.ListenerFunc(func(trace.Event) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Replay(noop)
	}
}

func BenchmarkReplayFastTrack(b *testing.B) {
	rec := recordHeavyTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Replay(mustDetector(b, "fasttrack"))
	}
}

func BenchmarkReplayEpoch(b *testing.B) {
	rec := recordHeavyTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Replay(mustDetector(b, "epoch"))
	}
}

func BenchmarkReplayDJIT(b *testing.B) {
	rec := recordHeavyTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Replay(mustDetector(b, "djit"))
	}
}

func BenchmarkReplayEraser(b *testing.B) {
	rec := recordHeavyTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Replay(mustDetector(b, "eraser"))
	}
}

// --- Hot path: steady-state per-event cost of a recycled detector ---
//
// Each benchmark replays the same recorded heavy trace into ONE
// detector instance that is Reset between iterations — the shape of a
// fleet-scale sweep, where core.Runner recycles per-worker detector
// state across seeds. ReportAllocs makes the allocation-free claim
// measurable: steady-state allocs/op must stay far below the
// construct-per-run Replay* benchmarks above (the pre-recycling
// baseline: FastTrack replayed at 442 allocs/op before the dense
// shadow slices and clock pooling landed).

func benchHotPath(b *testing.B, name string) {
	replayRecycled(b, mustDetector(b, name), recordHeavyTrace(b))
}

// replayRecycled is the hot-path loop: rec replayed into det, which is
// Reset before each op.
func replayRecycled(b *testing.B, det detector.Detector, rec *trace.Recorder) {
	// Prime once so slice growth to the trace's high-water mark is not
	// billed to the steady state.
	rec.Replay(det)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Reset()
		rec.Replay(det)
	}
}

func BenchmarkFastTrackHotPath(b *testing.B) { benchHotPath(b, "fasttrack") }

func BenchmarkEpochHotPath(b *testing.B) { benchHotPath(b, "epoch") }

func BenchmarkDJITHotPath(b *testing.B) { benchHotPath(b, "djit") }

func BenchmarkEraserHotPath(b *testing.B) { benchHotPath(b, "eraser") }

func BenchmarkHybridHotPath(b *testing.B) { benchHotPath(b, "hybrid") }

// BenchmarkLockChurnHotPath is the FastTrack hot path over
// lockChurnProgram, where the held-lock set changes between most pairs
// of accesses: the report context of an access is looked up under a
// new lock set far more often than in the heavy trace.
func BenchmarkLockChurnHotPath(b *testing.B) {
	replayRecycled(b, mustDetector(b, "fasttrack"), recordTrace(b, lockChurnProgram))
}

// benchSampledHotPath is the sampled variant of benchHotPath: the
// same recycled FastTrack behind a deterministic 1-in-rate access
// gate, measuring what a sample:<n> campaign actually pays per event
// (the gate still consumes every event; only the detection work is
// skipped). docs/DETECTORS.md's tuning guide reads these numbers
// against the detection-probability table.
func benchSampledHotPath(b *testing.B, rate int) {
	rec := recordHeavyTrace(b)
	d, err := detector.New("fasttrack", detector.WithSampleRate(rate))
	if err != nil {
		b.Fatal(err)
	}
	s, ok := d.(*detector.Sampled)
	if !ok {
		b.Fatalf("rate %d did not wrap in a sampling gate", rate)
	}
	s.SetRunSeed(1)
	replayRecycled(b, s, rec)
}

func BenchmarkFastTrackHotPathSample4(b *testing.B) { benchSampledHotPath(b, 4) }

func BenchmarkFastTrackHotPathSample16(b *testing.B) { benchSampledHotPath(b, 16) }

// --- Ablations (DESIGN.md) ---

// heavyProgram stresses shadow-memory operations: many goroutines,
// many cells, mixed sync.
func heavyProgram(g *sched.G) {
	const workers = 8
	vars := make([]*sched.Var[int], 16)
	for i := range vars {
		vars[i] = sched.NewVar[int](g, "cell")
	}
	mu := sched.NewMutex(g, "mu")
	wg := sched.NewWaitGroup(g, "wg")
	for w := 0; w < workers; w++ {
		wg.Add(g, 1)
		w := w
		g.Go("worker", func(g *sched.G) {
			for i := 0; i < 40; i++ {
				v := vars[(w*7+i)%len(vars)]
				if i%3 == 0 {
					mu.Lock(g)
					v.Update(g, func(x int) int { return x + 1 })
					mu.Unlock(g)
				} else {
					v.Load(g)
				}
			}
			wg.Done(g)
		})
	}
	wg.Wait(g)
}

// lockChurnProgram is heavyProgram with every access in a critical
// section: each worker nests an RWMutex read lock, a mutex of its own
// and, every other round, a shared mutex, accessing a cell at each
// depth, so acquires and releases sit between most pairs of accesses.
func lockChurnProgram(g *sched.G) {
	const workers = 8
	vars := make([]*sched.Var[int], 16)
	for i := range vars {
		vars[i] = sched.NewVar[int](g, "cell")
	}
	mu := sched.NewMutex(g, "mu")
	rw := sched.NewRWMutex(g, "rw")
	wg := sched.NewWaitGroup(g, "wg")
	for w := 0; w < workers; w++ {
		wg.Add(g, 1)
		w := w
		own := sched.NewMutex(g, "own")
		g.Go("worker", func(g *sched.G) {
			for i := 0; i < 40; i++ {
				v := vars[(w*7+i)%len(vars)]
				rw.RLock(g)
				v.Load(g)
				own.Lock(g)
				v.Load(g)
				if i%2 == 0 {
					mu.Lock(g)
					v.Update(g, func(x int) int { return x + 1 })
					mu.Unlock(g)
				}
				own.Unlock(g)
				rw.RUnlock(g)
			}
			wg.Done(g)
		})
	}
	wg.Wait(g)
}

func BenchmarkAblationEpochs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ep := mustDetector(b, "epoch")
		sched.Run(heavyProgram, sched.Options{
			Strategy: sched.NewRandom(), Seed: int64(i), MaxSteps: 1 << 18,
			Listeners: []trace.Listener{ep},
		})
	}
}

func BenchmarkAblationFullVC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dj := mustDetector(b, "djit")
		sched.Run(heavyProgram, sched.Options{
			Strategy: sched.NewRandom(), Seed: int64(i), MaxSteps: 1 << 18,
			Listeners: []trace.Listener{dj},
		})
	}
}

func BenchmarkAblationHybridVsHB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hy := mustDetector(b, "hybrid")
		sched.Run(heavyProgram, sched.Options{
			Strategy: sched.NewRandom(), Seed: int64(i), MaxSteps: 1 << 18,
			Listeners: []trace.Listener{hy},
		})
	}
}

// --- Batch scaling: a 64-seed sweep of the heavy program as one
// sweep.Engine unit, serial vs one worker per CPU. The paper's
// deployment lesson is that detection pays off at fleet scale; this
// pair quantifies the campaign engine's parallel wall-clock win on one
// machine.

func benchmarkHeavySweep(b *testing.B, parallelism int) {
	b.ReportAllocs()
	engine := sweep.New(sweep.WithParallelism(parallelism))
	for i := 0; i < b.N; i++ {
		_, stats, err := engine.Run([]sweep.Unit{{
			ID: "heavy", Program: heavyProgram,
			BaseSeed: int64(i), Runs: 64, MaxSteps: 1 << 18,
		}}, func() sweep.Aggregator { return sweep.NewProb() })
		if err != nil {
			b.Fatal(err)
		}
		if stats.Runs != 64 {
			b.Fatal("incomplete batch")
		}
	}
}

func BenchmarkRunBatchSerial(b *testing.B) { benchmarkHeavySweep(b, 1) }

func BenchmarkRunBatchParallel(b *testing.B) { benchmarkHeavySweep(b, runtime.NumCPU()) }

// --- Extension: static analysis of the §4 patterns ---

const staticBenchSrc = `package p

import "sync"

func processJobs(jobs []int) {
	var wg sync.WaitGroup
	errMap := make(map[int]error)
	for _, job := range jobs {
		go func() {
			wg.Add(1)
			errMap[job] = nil
			wg.Done()
		}()
	}
	wg.Wait()
}

func critical(mu sync.Mutex) (count int) {
	mu.Lock()
	go func() { count++ }()
	mu.Unlock()
	return 10
}
`

func BenchmarkStaticAnalyzer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fs, err := staticrace.AnalyzeSource("bench.go", staticBenchSrc)
		if err != nil {
			b.Fatal(err)
		}
		if len(fs) < 4 {
			b.Fatalf("analyzer lost findings: %d", len(fs))
		}
	}
}

// --- Extension: post-facto trace persistence ---
//
// BenchmarkTraceCodecBinary measures the record-once/analyze-many hot
// path: one full save+load round trip of the heavy trace per
// iteration, with the encoded size reported as bytes/trace.
func BenchmarkTraceCodecBinary(b *testing.B) {
	rec := recordHeavyTrace(b)
	var size int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := rec.Save(&buf); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
		got, err := trace.Load(&buf)
		if err != nil || len(got.Events) != len(rec.Events) {
			b.Fatalf("round trip broken: %v", err)
		}
	}
	b.ReportMetric(float64(size), "bytes/trace")
}

// BenchmarkTraceDecode measures the decoder alone on the streaming
// ingest path: one 500k-event stream of the eviction-path shape (8
// goroutines over 2^16-address ranges), pre-encoded, decoded from
// memory per op with no listener attached.
func BenchmarkTraceDecode(b *testing.B) {
	const events = 500_000
	var buf bytes.Buffer
	spec := stream.SynthSpec{Events: events, Goroutines: 8, Addrs: 1 << 16, Planted: events / 1000, Seed: 1}
	if err := spec.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := trace.NewDecoder(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for ; ; n++ {
			if _, err := dec.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		if n != events {
			b.Fatalf("decoded %d events, want %d", n, events)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// --- Extension: online streaming ingest under a memory ceiling ---

// BenchmarkStreamIngest streams a pre-encoded synthetic trace through
// a ceilinged online Ingestor, one 100k-event stream per op — under
// CI's -benchtime 100x that is the paper-scale 10M events per bench
// run. Throughput is the ns/op number; the ceiling contract is the
// assertion: peak HeapAlloc sampled across the whole run must stay
// under the 64 MiB ceiling (skipped under -race, whose shadow words
// void any absolute heap figure), and every op must detect at least
// 90% of the planted races. The full ceiling-degradation table lives
// in `racedetect -stream-bench`; this benchmark pins the one point CI
// gates on.
func BenchmarkStreamIngest(b *testing.B) {
	const ceilingMiB = 64
	spec := stream.SynthSpec{
		Events:     100_000,
		Goroutines: 8,
		Addrs:      1 << 13, // working set sized to fit the ceiling's page budget
		Planted:    10,
		Seed:       1,
	}
	var buf bytes.Buffer
	if err := spec.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()

	// Same pairing RunCeilingSweep documents: the page budget bounds
	// shadow state, the soft limit (with headroom) bounds decode churn.
	prev := debug.SetMemoryLimit(ceilingMiB << 20 * 3 / 4)
	defer debug.SetMemoryLimit(prev)
	runtime.GC()
	stop := make(chan struct{})
	peak := make(chan uint64, 1)
	go func() {
		var ms runtime.MemStats
		max := uint64(0)
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > max {
				max = ms.HeapAlloc
			}
			select {
			case <-stop:
				peak <- max
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()

	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ing, err := stream.NewIngestor(stream.Config{MemCeilingMiB: ceilingMiB})
		if err != nil {
			b.Fatal(err)
		}
		res, err := ing.Ingest(context.Background(), bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if got := spec.DetectedPlanted(res.Races); got*10 < spec.Planted*9 {
			b.Fatalf("detected %d/%d planted races, need >=90%%", got, spec.Planted)
		}
	}
	b.StopTimer()
	close(stop)
	peakMiB := float64(<-peak) / (1 << 20)
	b.ReportMetric(peakMiB, "peak-heap-MiB")
	if !raceEnabled && peakMiB >= ceilingMiB {
		b.Fatalf("peak heap %.1f MiB broke the %d MiB ceiling", peakMiB, ceilingMiB)
	}
}

// BenchmarkStreamIngestEvict is the eviction path's time gate: the
// ingest-evict shape (8 goroutines over 2¹⁶-address private ranges, a
// plant per 1,000 events, a Collector folding online) at a 16 MiB
// ceiling, one 100k-event stream per op. The working set outgrows the
// ceiling's page budget, so every op faults, evicts and reloads shadow
// pages and probes the sparse address index on every access.
// retained-MiB is the heap the last op's live Ingestor holds after its
// stream, measured between garbage collections with the timer stopped.
func BenchmarkStreamIngestEvict(b *testing.B) {
	const ceilingMiB = 16
	spec := stream.SynthSpec{
		Events:     100_000,
		Goroutines: 8,
		Addrs:      1 << 16,
		Planted:    100,
		Seed:       1,
	}
	var buf bytes.Buffer
	if err := spec.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	prev := debug.SetMemoryLimit(ceilingMiB << 20 * 3 / 4)
	defer debug.SetMemoryLimit(prev)

	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	evictions := 0
	var before, after runtime.MemStats
	for i := 0; i < b.N; i++ {
		last := i == b.N-1
		if last {
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.StartTimer()
		}
		ing, err := stream.NewIngestor(stream.Config{
			MemCeilingMiB: ceilingMiB,
			Collector:     corpus.NewCollector("evict"),
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := ing.Ingest(context.Background(), bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Evictions == 0 {
			b.Fatal("the stream fit the ceiling; nothing was evicted")
		}
		evictions += res.Stats.Evictions
		if last {
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(ing)
		}
	}
	b.ReportMetric(float64(evictions)/float64(b.N), "evictions/op")
	b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20), "retained-MiB")
}

// --- Extension: the streaming sweep campaign engine ---

// BenchmarkSweepCampaign runs a small corpus-wide campaign (4 racy
// patterns × 2 strategies × 16 seeds) through the engine with three
// aggregators attached, the deduplicating Collector among them,
// serially — the per-run engine overhead, not parallel speedup, is the
// measurement.
func BenchmarkSweepCampaign(b *testing.B) {
	ids := []string{"capture-loop-index", "partial-locking", "map-concurrent-write", "capture-err"}
	var units []sweep.Unit
	for _, id := range ids {
		p, ok := patterns.ByID(id)
		if !ok {
			b.Fatalf("pattern %s missing", id)
		}
		for _, s := range []string{"random", "pct"} {
			units = append(units, sweep.Unit{
				ID: id + "/" + s, Program: p.Racy, Strategy: s,
				Runs: 16, MaxSteps: 1 << 16,
			})
		}
	}
	eng := sweep.New(sweep.WithParallelism(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggs, stats, err := eng.Run(units,
			func() sweep.Aggregator { return sweep.NewProb() },
			func() sweep.Aggregator { return corpus.NewCollector("bench") },
			func() sweep.Aggregator { return sweep.NewFirstRace() },
		)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Runs != len(units)*16 || aggs[1].(*corpus.Collector).Defects() == 0 {
			b.Fatalf("campaign lost work: %+v", stats)
		}
	}
}

// tinyRace is about the smallest racy program: two goroutines write
// one cell with no synchronization.
func tinyRace(g *sched.G) {
	x := sched.NewVar[int](g, "x")
	g.Go("writer", func(g *sched.G) { x.Store(g, 1) })
	x.Store(g, 2)
}

// BenchmarkSweepManyUnits runs a campaign shaped like the nightly: 5,000
// units of one run each, so every run is its own shard with fresh
// aggregators. The program is tiny so that aggregator bookkeeping is a
// large share of the allocations: per-shard aggregator cost must not
// grow with the unit index, and if it does, allocs/op grows with it and
// the benchdiff gate fails.
func BenchmarkSweepManyUnits(b *testing.B) {
	units := make([]sweep.Unit, 5000)
	for i := range units {
		units[i] = sweep.Unit{
			ID: fmt.Sprintf("svc-%04d", i), Program: tinyRace, Strategy: "random",
			BaseSeed: int64(i), Runs: 1,
		}
	}
	eng := sweep.New(sweep.WithParallelism(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggs, stats, err := eng.Run(units,
			func() sweep.Aggregator { return sweep.NewProb() },
			func() sweep.Aggregator { return corpus.NewCollector("bench") },
		)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Shards != len(units) || len(aggs[0].(*sweep.Prob).Stats()) != len(units) ||
			aggs[1].(*corpus.Collector).Defects() == 0 {
			b.Fatalf("campaign lost work: %+v", stats)
		}
	}
}

// BenchmarkRunNightly runs the paper's nightly loop at a seventh of its
// 2,100 services: 300 services × 10 tests, every execution recorded,
// folded by the corpus collector and appended to a store, one night
// per op into a fresh store. Scheduler, worker and trace recycling show
// up here as allocs/op.
func BenchmarkRunNightly(b *testing.B) {
	repo := monorepo.Generate(300, 10, 0.3, 1)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := corpus.Open(filepath.Join(dir, fmt.Sprintf("night-%d.db", i)))
		if err != nil {
			b.Fatal(err)
		}
		n, err := repo.RunNightly(store, "night-1", int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if n.Executions != 3000 || n.Defects == 0 {
			b.Fatalf("night lost work: %d executions, %d defects", n.Executions, n.Defects)
		}
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension: the corpus store and delta codecs ---

// corpusBenchExport builds a 5,000-record export shaped like a nightly
// corpus: real reports from the listing patterns, spread over distinct
// units, each defect seen in two runs.
func corpusBenchExport(b *testing.B) corpus.Export {
	b.Helper()
	races := manifestAllListings(b)
	runs := []string{"2026-07-01", "2026-07-02"}
	x := corpus.Export{Runs: []corpus.RunInfo{
		{ID: runs[0], Label: "nightly", Executions: 2100, Reports: 5000},
		{ID: runs[1], Label: "nightly", Executions: 2100, Reports: 5000},
	}}
	for i := 0; i < 5000; i++ {
		race := races[i%len(races)]
		unit := fmt.Sprintf("svc-%04d/TestRace", i)
		x.Records = append(x.Records, corpus.Record{
			Key: unit + "/" + race.Hash(), Unit: unit, RunIDs: runs, Count: 2,
			Category:  taxonomy.CatMissingLock,
			Labels:    []taxonomy.Category{taxonomy.CatMissingLock, taxonomy.CatGlobalVar},
			Detector:  race.Detector,
			TracePath: fmt.Sprintf("traces/svc-%04d.trace", i),
			Race:      race,
		})
	}
	return x
}

// BenchmarkCorpusOpen opens a 5,000-record store file: the read, the
// frame scan and CRC check, the decode and the fold, per op.
func BenchmarkCorpusOpen(b *testing.B) {
	x := corpusBenchExport(b)
	path := filepath.Join(b.TempDir(), "bench.grcs")
	s, err := corpus.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	for _, info := range x.Runs {
		if err := s.AppendRun(info); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Append(x.Records...); err != nil {
		b.Fatal(err)
	}
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := corpus.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != len(x.Records) {
			b.Fatalf("opened %d records, want %d", s.Len(), len(x.Records))
		}
		s.Close()
	}
}

// BenchmarkCorpusReadDelta decodes a 5,000-record delta, the unit of
// replica and worker corpus traffic.
func BenchmarkCorpusReadDelta(b *testing.B) {
	x := corpusBenchExport(b)
	var buf bytes.Buffer
	if err := corpus.WriteDelta(&buf, x); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := corpus.ReadDelta(bytes.NewReader(data))
		if err != nil || len(got.Records) != len(x.Records) {
			b.Fatalf("read %d records: %v", len(got.Records), err)
		}
	}
}

// manifestAllListings collects one report per listing-backed pattern.
func manifestAllListings(b *testing.B) []report.Race {
	b.Helper()
	runner := core.NewRunner(core.WithMaxSteps(1 << 16))
	var out []report.Race
	for _, p := range patterns.All() {
		if p.Listing == 0 {
			continue
		}
		for seed := int64(0); seed < 60; seed++ {
			res, err := runner.RunSeed(p.Racy, seed)
			if err != nil {
				b.Fatal(err)
			}
			if res.HasRace() {
				out = append(out, res.Races[0])
				break
			}
		}
	}
	if len(out) == 0 {
		b.Fatal("no listing races manifested")
	}
	return out
}
