package stream

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"gorace/internal/classify"
	"gorace/internal/corpus"
	"gorace/internal/detector"
	"gorace/internal/progen"
	"gorace/internal/progs"
	"gorace/internal/sched"
	"gorace/internal/trace"
)

// synthBytes renders spec once; tests reuse the buffer across ingests
// so every configuration sees the identical stream.
func synthBytes(t *testing.T, spec SynthSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := spec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestUnboundedDetectsAllPlanted: with no ceiling, every planted
// pair must be reported — the synthetic stream's ground truth is
// exact, so anything less is a detector bug, not an eviction loss.
func TestIngestUnboundedDetectsAllPlanted(t *testing.T) {
	spec := SynthSpec{Events: 200000, Planted: 25, Seed: 1}.norm()
	data := synthBytes(t, spec)
	in, err := NewIngestor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Ingest(context.Background(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.DetectedPlanted(res.Races); got != spec.Planted {
		t.Fatalf("unbounded ingest detected %d of %d planted races", got, spec.Planted)
	}
	if res.Stats.Evictions != 0 {
		t.Fatalf("unbounded ingest evicted %d pages", res.Stats.Evictions)
	}
	if res.Events != uint64(spec.Events) {
		t.Fatalf("ingested %d events, stream has %d", res.Events, spec.Events)
	}
}

// TestIngestCeilingEvictsAndStaysSubset: a tight ceiling must actually
// evict, hold the page budget, and lose races only — every report the
// ceilinged run makes, the unbounded run also makes.
func TestIngestCeilingEvictsAndStaysSubset(t *testing.T) {
	spec := SynthSpec{Events: 200000, Planted: 25, Seed: 1}.norm()
	data := synthBytes(t, spec)

	full, err := NewIngestor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := full.Ingest(context.Background(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	in, err := NewIngestor(Config{MemCeilingMiB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if in.DetectorName() != "fasttrack" {
		t.Fatalf("ceilinged ingestor resolved %q, want the default fasttrack", in.DetectorName())
	}
	if in.PageBudget() < 1 {
		t.Fatalf("page budget %d", in.PageBudget())
	}
	res, err := in.Ingest(context.Background(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evictions == 0 {
		t.Fatal("1 MiB ceiling over a wide synthetic stream never evicted")
	}
	fullSet := make(map[string]bool)
	for _, h := range raceHashes(fullRes.Races) {
		fullSet[h] = true
	}
	for _, h := range raceHashes(res.Races) {
		if !fullSet[h] {
			t.Fatalf("ceilinged ingest reported race %s the unbounded run did not", h)
		}
	}
	t.Logf("ceiling 1 MiB: detected %d/%d planted, evictions=%d reloads=%d",
		spec.DetectedPlanted(res.Races), spec.Planted, res.Stats.Evictions, res.Stats.Reloads)
}

// TestIngestFoldsIntoCollector: races fold online with window context,
// first manifestations define defects, and a second identical stream
// adds occurrence counts but no new defects. The Ingestor's in-place
// fold must store exactly what the eager fold stores (foldMatchesEager)
// over the synthetic stream and the streaming differential's progen
// and dogfood inputs — the latter carry the channel and WaitGroup
// events the hints read — at the default window and at one small
// enough that rings wrap, with and without a trace dir.
func TestIngestFoldsIntoCollector(t *testing.T) {
	spec := SynthSpec{Events: 50000, Planted: 5, Seed: 3}.norm()
	data := synthBytes(t, spec)
	coll := corpus.NewCollector("stream-test")

	first, err := NewIngestor(Config{Unit: "svc/ingest", Collector: coll, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := first.Ingest(context.Background(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res.NewDefects == 0 || res.NewDefects != coll.Defects() {
		t.Fatalf("first stream defined %d defects, collector has %d", res.NewDefects, coll.Defects())
	}
	if coll.Executions() != 1 {
		t.Fatalf("executions = %d, want 1", coll.Executions())
	}

	second, err := NewIngestor(Config{Unit: "svc/ingest", Collector: coll, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := second.Ingest(context.Background(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res2.NewDefects != 0 {
		t.Fatalf("identical second stream defined %d new defects", res2.NewDefects)
	}
	if coll.Executions() != 2 {
		t.Fatalf("executions = %d, want 2", coll.Executions())
	}

	recs := coll.Records()
	if len(recs) == 0 {
		t.Fatal("no records collected")
	}
	for _, rec := range recs {
		if rec.Unit != "svc/ingest" || !strings.HasPrefix(rec.Key, "svc/ingest/") {
			t.Fatalf("record attribution wrong: %+v", rec)
		}
		if rec.Detector != "fasttrack" {
			t.Fatalf("record detector %q, want registry name fasttrack", rec.Detector)
		}
		if rec.Count < 2 {
			t.Fatalf("second stream did not raise occurrence count: %+v", rec)
		}
	}

	inputs := map[string][]byte{"synth": data}
	for seed := int64(0); seed < 60; seed++ {
		inputs[fmt.Sprintf("progen/%d", seed)] = progTrace(t, progen.Generate(seed, progen.Params{}).Main(), seed)
	}
	for _, p := range progs.Programs() {
		for seed := int64(0); seed < 3; seed++ {
			inputs[fmt.Sprintf("prog:%s/%d", p.Name, seed)] = progTrace(t, p.Racy, seed)
		}
	}
	folds := 0
	for name, data := range inputs {
		for _, window := range []int{DefaultWindow, 8} {
			folds += foldMatchesEager(t, fmt.Sprintf("%s window %d", name, window), data, window, "")
			foldMatchesEager(t, fmt.Sprintf("%s window %d, trace dir", name, window), data, window, t.TempDir())
		}
	}
	if folds < 100 {
		t.Fatalf("the inputs made only %d folds", folds)
	}
}

// progTrace runs prog once under seed and returns its trace in the
// binary codec.
func progTrace(t *testing.T, prog func(*sched.G), seed int64) []byte {
	t.Helper()
	rec := &trace.Recorder{}
	sched.Run(prog, sched.Options{
		Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 18,
		Listeners: []trace.Listener{rec},
	})
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// foldMatchesEager ingests data through an Ingestor with a Collector
// (the in-place FoldWindow path) and requires the records and, under
// a trace dir, the retained traces to equal those of the eager
// reference: FoldRaces over a freshly merged window at every
// manifestation. At each of the reference's folds it also requires
// HintsFromWindow to equal HintsFromTrace of the merged window. It
// returns the number of folds.
func foldMatchesEager(t *testing.T, name string, data []byte, window int, dir string) int {
	t.Helper()
	newColl := func(sub string) *corpus.Collector {
		if dir == "" {
			return corpus.NewCollector("fold")
		}
		return corpus.NewCollector("fold", corpus.WithTraceDir(filepath.Join(dir, sub)))
	}

	ref := newColl("ref")
	det := detector.NewFastTrack()
	win := trace.NewWindowRecorder(window)
	dec, err := trace.NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	folds := 0
	for {
		ev, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		win.HandleEvent(ev)
		det.HandleEvent(ev)
		if n := det.RaceCount(); n > folds {
			events := win.Events()
			if got, want := classify.HintsFromWindow(win), classify.HintsFromTrace(events); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: hints at report %d:\nwindow %+v\nmerged %+v", name, n, got, want)
			}
			ref.FoldRaces(0, "stream", detector.DefaultName, 0, det.Races()[folds:n], events)
			folds = n
		}
	}
	ref.NoteExecution()

	coll := newColl("got")
	in, err := NewIngestor(Config{Collector: coll, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Ingest(context.Background(), bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	gotRecs, gotFiles := stored(t, coll, dir, "got")
	wantRecs, wantFiles := stored(t, ref, dir, "ref")
	if !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Fatalf("%s: records differ from the eager fold:\ngot  %+v\nwant %+v", name, gotRecs, wantRecs)
	}
	if !reflect.DeepEqual(gotFiles, wantFiles) {
		t.Fatalf("%s: retained traces differ from the eager fold", name)
	}
	return folds
}

// stored returns coll's records and, with a trace dir, appends coll to
// a fresh store under dir/sub and returns its retained trace files
// keyed by record key.
func stored(t *testing.T, coll *corpus.Collector, dir, sub string) ([]corpus.Record, map[string]string) {
	t.Helper()
	recs := coll.Records()
	if dir == "" {
		return recs, nil
	}
	dir = filepath.Join(dir, sub)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	store, err := corpus.Open(filepath.Join(dir, "corpus.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := coll.AppendTo(store); err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, rec := range recs {
		b, err := os.ReadFile(corpus.TracePathIn(dir, rec.Key))
		if err != nil {
			t.Fatal(err)
		}
		files[rec.Key] = string(b)
	}
	return recs, files
}

// TestFoldBufferReuseLeavesCollectorIntact: the Ingestor's folds read
// the window's rings in place, buffers the recorder keeps reusing as
// the stream goes on, so the Collector must copy what it keeps.
// Scribbling over every retained window event after Ingest must leave
// the stored records and retained traces equal to the eager fold's.
func TestFoldBufferReuseLeavesCollectorIntact(t *testing.T) {
	spec := SynthSpec{Events: 50000, Planted: 5, Seed: 3}.norm()
	data := synthBytes(t, spec)
	dir := t.TempDir()

	// Reference: the eager fold, a fresh window slice per fold.
	ref := corpus.NewCollector("fold", corpus.WithTraceDir(filepath.Join(dir, "ref")))
	det := detector.NewFastTrack()
	win := trace.NewWindowRecorder(DefaultWindow)
	dec, err := trace.NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	folded := 0
	for {
		ev, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		win.HandleEvent(ev)
		det.HandleEvent(ev)
		if n := det.RaceCount(); n > folded {
			ref.FoldRaces(0, "stream", detector.DefaultName, 0, det.Races()[folded:n], win.Events())
			folded = n
		}
	}
	ref.NoteExecution()
	wantRecs, wantFiles := stored(t, ref, dir, "ref")
	if len(wantRecs) < 2 {
		t.Fatalf("stream defined %d defects, want several folds", len(wantRecs))
	}

	coll := corpus.NewCollector("fold", corpus.WithTraceDir(filepath.Join(dir, "got")))
	in, err := NewIngestor(Config{Collector: coll})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Ingest(context.Background(), bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	scribbled := 0
	in.win.Each(func(ev *trace.Event) {
		*ev = trace.Event{Seq: uint64(scribbled), G: 1, Op: trace.OpAcquire, Kind: trace.KindWG, Label: "scribbled"}
		scribbled++
	})
	if scribbled == 0 {
		t.Fatal("the Ingestor's window retained no events")
	}
	gotRecs, gotFiles := stored(t, coll, dir, "got")
	if !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Fatalf("records differ from the eager fold:\ngot  %+v\nwant %+v", gotRecs, wantRecs)
	}
	if !reflect.DeepEqual(gotFiles, wantFiles) {
		t.Fatal("retained traces differ from the eager fold")
	}
}

// TestIngestChunkedStreams: one Ingestor fed a stream split across two
// Ingest calls keeps detector state across the boundary (races whose
// accesses straddle the cut still manifest), never re-reports chunk-1
// races in chunk 2's Result, and folds each defect once.
func TestIngestChunkedStreams(t *testing.T) {
	spec := SynthSpec{Events: 50000, Planted: 5, Seed: 3}.norm()
	data := synthBytes(t, spec)

	// Re-encode the stream as two independent chunks split mid-stream.
	dec, err := trace.NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	for {
		ev, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	encodeChunk := func(evs []trace.Event) []byte {
		var buf bytes.Buffer
		enc := trace.NewEncoder(&buf)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cut := len(events) / 2
	chunk1, chunk2 := encodeChunk(events[:cut]), encodeChunk(events[cut:])

	coll := corpus.NewCollector("chunked")
	in, err := NewIngestor(Config{Collector: coll})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := in.Ingest(context.Background(), bytes.NewReader(chunk1))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := in.Ingest(context.Background(), bytes.NewReader(chunk2))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Events+res2.Events != uint64(len(events)) {
		t.Fatalf("chunks consumed %d+%d events, stream has %d", res1.Events, res2.Events, len(events))
	}

	// The combined report sequence equals a single-shot ingest.
	single, err := NewIngestor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Ingest(context.Background(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got := append(raceHashes(res1.Races), raceHashes(res2.Races)...)
	if len(got) != len(want.Races) {
		t.Fatalf("chunked ingest reported %d races, single-shot %d", len(got), len(want.Races))
	}
	for i, h := range raceHashes(want.Races) {
		if got[i] != h {
			t.Fatalf("report %d diverged across the chunk boundary", i)
		}
	}
	if res1.NewDefects+res2.NewDefects != coll.Defects() {
		t.Fatalf("chunked folds defined %d+%d defects, collector has %d",
			res1.NewDefects, res2.NewDefects, coll.Defects())
	}
}

// TestIngestCountingDetectors runs the counting detectors (one report
// per racy address, Count for the pair total) through the streaming
// path with a Collector. The stream has one address with two racing
// pairs — two unordered readers, then a writer — so a detector whose
// pair count leaked into the per-report manifestation probe would fold
// past the end of its report list.
func TestIngestCountingDetectors(t *testing.T) {
	events := []trace.Event{
		{Op: trace.OpFork, G: 0, Child: 1},
		{Op: trace.OpFork, G: 0, Child: 2},
		{Op: trace.OpFork, G: 0, Child: 3},
		{Op: trace.OpRead, G: 1, Addr: 5},
		{Op: trace.OpRead, G: 2, Addr: 5},
		{Op: trace.OpWrite, G: 3, Addr: 5},
	}
	var buf bytes.Buffer
	enc := trace.NewEncoder(&buf)
	for i, ev := range events {
		ev.Seq = uint64(i + 1)
		events[i] = ev
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	type counting interface {
		detector.Detector
		Count() int
		RacyAddrs() map[trace.Addr]bool
	}
	for _, name := range []string{"epoch", "djit"} {
		coll := corpus.NewCollector("counting")
		in, err := NewIngestor(Config{Detector: name, Collector: coll})
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.Ingest(context.Background(), bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		det := in.Detector().(counting)
		if det.Count() != 2 || len(det.RacyAddrs()) != 1 {
			t.Fatalf("%s: %d pairs on %d addresses, want 2 on 1", name, det.Count(), len(det.RacyAddrs()))
		}
		if len(res.Races) != len(det.RacyAddrs()) {
			t.Fatalf("%s: %d races, %d racy addresses", name, len(res.Races), len(det.RacyAddrs()))
		}
		if res.Stats.Reports != det.Count() {
			t.Fatalf("%s: Stats.Reports %d, Count %d", name, res.Stats.Reports, det.Count())
		}
		if res.NewDefects != coll.Defects() || coll.Defects() == 0 {
			t.Fatalf("%s: %d new defects, collector has %d", name, res.NewDefects, coll.Defects())
		}

		fresh, err := detector.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			fresh.HandleEvent(ev)
		}
		if !reflect.DeepEqual(res.Races, fresh.Races()) {
			t.Fatalf("%s: streamed races %v, replay %v", name, res.Races, fresh.Races())
		}
		if res.Stats != fresh.Stats() {
			t.Fatalf("%s: streamed stats %s, replay %s", name, res.Stats, fresh.Stats())
		}
	}
}

// TestIngestHybridFoldsMidStream: hybrid's reports are its FastTrack
// side's, so a hybrid ingest must fold each defect when it manifests,
// against the same window a fasttrack ingest folds it with, and store
// the same records apart from the detector name. A window of 8 events
// is small enough that classifying at stream end instead would see
// different events.
func TestIngestHybridFoldsMidStream(t *testing.T) {
	records := func(name string, data []byte) []corpus.Record {
		coll := corpus.NewCollector("hybrid-fold")
		in, err := NewIngestor(Config{Detector: name, Collector: coll, Window: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Ingest(context.Background(), bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		recs := coll.Records()
		for i := range recs {
			recs[i].Detector = ""
		}
		return recs
	}
	defects := 0
	for seed := int64(0); seed < 40; seed++ {
		data := progTrace(t, progen.Generate(seed, progen.Params{}).Main(), seed)
		ft, hy := records("fasttrack", data), records("hybrid", data)
		if !reflect.DeepEqual(ft, hy) {
			t.Fatalf("progen seed %d: hybrid records differ from fasttrack's\nfasttrack: %+v\nhybrid:    %+v", seed, ft, hy)
		}
		defects += len(ft)
	}
	if defects == 0 {
		t.Fatal("no progen seed folded a defect")
	}
}

// TestIngestRejectsNonEvictableUnderCeiling: NewIngestor fails closed.
// A detector without paged shadow state cannot promise a ceiling, so
// configuration must fail loudly, naming it, rather than silently run
// unbounded; without a ceiling every registered detector is accepted.
func TestIngestRejectsNonEvictableUnderCeiling(t *testing.T) {
	for _, tc := range []struct {
		det     string
		wantErr bool
	}{
		{"", false},
		{"fasttrack", false},
		{"fasttrack-paged", true}, // the old alias is an unknown name
		{"djit", true},
		{"eraser", true},
		{"hybrid", true},
		{"epoch", true},
		{"none", true},
		{"no-such", true},
	} {
		in, err := NewIngestor(Config{Detector: tc.det, MemCeilingMiB: 64})
		if tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), tc.det) {
				t.Errorf("%q under a ceiling: err = %v, want a rejection naming it", tc.det, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q under a ceiling: %v", tc.det, err)
			continue
		}
		if _, ok := in.Detector().(detector.Evictor); !ok || in.PageBudget() < 1 {
			t.Errorf("%q under a ceiling: %T with page budget %d, want an Evictor with budget >= 1",
				tc.det, in.Detector(), in.PageBudget())
		}
	}
	for _, name := range detector.Names() {
		in, err := NewIngestor(Config{Detector: name})
		if err != nil {
			t.Errorf("%q without a ceiling: %v", name, err)
			continue
		}
		if in.PageBudget() != 0 {
			t.Errorf("%q without a ceiling: page budget %d, want 0", name, in.PageBudget())
		}
	}
}

// TestIngestCancellation: cancelling mid-stream stops the ingest
// within one check interval and reports the partial progress.
func TestIngestCancellation(t *testing.T) {
	spec := SynthSpec{Events: 500000, Planted: 1, Seed: 5}
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(spec.Write(pw)) }()
	defer pr.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in, err := NewIngestor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Ingest(ctx, pr)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Events >= uint64(spec.norm().Events) {
		t.Fatalf("cancelled ingest consumed the whole stream (%d events)", res.Events)
	}
}

// TestIngestTruncatedStreamKeepsProgress: a stream that dies mid-event
// surfaces the decode error and the events before the cut are fully
// detected.
func TestIngestTruncatedStreamKeepsProgress(t *testing.T) {
	spec := SynthSpec{Events: 20000, Planted: 3, Seed: 9}.norm()
	data := synthBytes(t, spec)
	in, err := NewIngestor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Ingest(context.Background(), bytes.NewReader(data[:len(data)*2/3]))
	if err == nil {
		t.Fatal("truncated stream ingested without error")
	}
	if res.Events == 0 {
		t.Fatal("no progress before the truncation point")
	}
	if res.Events != uint64(res.Stats.Events) {
		t.Fatalf("result says %d events, detector saw %d", res.Events, res.Stats.Events)
	}
}

// TestRunCeilingSweep exercises the CI-table path end to end on a
// small stream: unbounded detects everything, a starved ceiling
// evicts, and the markdown render carries one row per ceiling.
func TestRunCeilingSweep(t *testing.T) {
	spec := SynthSpec{Events: 100000, Planted: 10, Seed: 2}
	rows, err := RunCeilingSweep(context.Background(), spec, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if rows[0].Detected != rows[0].Planted {
		t.Fatalf("unbounded row missed planted races: %+v", rows[0])
	}
	if rows[1].Evictions == 0 {
		t.Fatalf("1 MiB row never evicted: %+v", rows[1])
	}
	md := MarkdownTable(rows)
	if !strings.Contains(md, "unbounded") || !strings.Contains(md, "1 MiB") {
		t.Fatalf("markdown table incomplete:\n%s", md)
	}
}

// TestReplayIsStreamed pins the cost of a post-facto replay: with no
// Collector nothing is folded, so the Ingestor must keep no event
// window, and ingesting a trace must allocate far less than holding
// its events would. A whole-trace load costs events ×
// sizeof(trace.Event); the bound is a quarter of that.
func TestReplayIsStreamed(t *testing.T) {
	spec := SynthSpec{Events: 200000, Addrs: 1 << 10, Seed: 1}.norm()
	data := synthBytes(t, spec)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	in, err := NewIngestor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Ingest(context.Background(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if res.Events != uint64(spec.Events) {
		t.Fatalf("ingested %d events, stream has %d", res.Events, spec.Events)
	}
	whole := uint64(spec.Events) * uint64(unsafe.Sizeof(trace.Event{}))
	if got := after.TotalAlloc - before.TotalAlloc; got >= whole/4 {
		t.Fatalf("replay allocated %d bytes, want under %d (a quarter of the %d a whole-trace load holds)", got, whole/4, whole)
	}
	retained := 0
	if in.win != nil {
		retained = in.win.Retained()
	}
	if retained != 0 {
		t.Fatalf("replay without a Collector retained %d events", retained)
	}
}
