package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"gorace/internal/corpus"
	"gorace/internal/detector"
	"gorace/internal/stream"
	"gorace/internal/trace"
)

// ingestShape sizes one ingest workload.
type ingestShape struct {
	events     int // events per stream file
	addrs      int // each noise goroutine's private address range
	plantEvery int // events per planted race
	ceilingMiB int
	// resident workloads never outgrow the ceiling: every planted race
	// must be found and no shadow page may be evicted.
	resident bool
}

const (
	ingestFiles = 4
	// traceChunk is how many events one traced layer span covers.
	traceChunk = 4096
	// traceRounds is how many times the traced run takes each file.
	// One read moves by up to 20% from the next on a shared host, so
	// the difference between Ingest and the layer pass needs several.
	traceRounds = 3
)

// The always-on detector's steady state: shadow state fits the 64 MiB
// ceiling, so decode, window and detector work dominate.
func runIngestResident(b *bench) error {
	return runIngest(b, ingestShape{events: 1_000_000, addrs: 1 << 12, plantEvery: 10_000, ceilingMiB: 64, resident: true})
}

// The same layers under memory pressure: wide address ranges at a
// 16 MiB ceiling make the paged-eviction path dominate. Races are
// planted ten times denser than in the resident streams, so recall
// rests on enough plants to hold steady from one seed to the next.
func runIngestEvict(b *bench) error {
	return runIngest(b, ingestShape{events: 500_000, addrs: 1 << 16, plantEvery: 1000, ceilingMiB: 16})
}

// ingestInput is one stream file and the spec that generated it.
type ingestInput struct {
	spec stream.SynthSpec
	path string
	size int64
}

// plantedRange returns the first and last planted address of spec;
// planted addresses are contiguous.
func plantedRange(spec stream.SynthSpec) (lo, hi trace.Addr) {
	return spec.PlantedAddr(0), spec.PlantedAddr(spec.Planted - 1)
}

func runIngest(b *bench, shape ingestShape) error {
	inputs := make([]ingestInput, ingestFiles)
	events := b.cfg.scaled(shape.events, 2*shape.plantEvery)
	for i := range inputs {
		inputs[i].spec = stream.SynthSpec{
			Events: events, Goroutines: 8, Addrs: shape.addrs,
			Planted: events / shape.plantEvery, Seed: b.cfg.seed + int64(i),
		}
		inputs[i].path = filepath.Join(b.dir, fmt.Sprintf("stream-%d.grtb", i))
	}
	err := b.setup(func() error {
		for i := range inputs {
			if err := writeStream(&inputs[i]); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	// As in stream.RunCeilingSweep: a soft limit at 3/4 of the ceiling
	// makes the collector absorb decode garbage instead of letting the
	// heap coast past the ceiling between cycles.
	prev := debug.SetMemoryLimit(int64(shape.ceilingMiB) << 20 * 3 / 4)
	defer debug.SetMemoryLimit(prev)
	if b.tr != nil {
		return traceIngest(b, shape, inputs)
	}

	var (
		planted, found int64
		lat            []time.Duration
		sums           = make([]string, len(inputs))
	)
	var heap float64 // summed over the first read of each file
	start := time.Now()
	// Every file is read at least once; recall comes from that first
	// pass, and later reads must report exactly the same races.
	for read := 0; read < len(inputs) || time.Since(start) < b.cfg.seconds; read++ {
		i := read % len(inputs)
		t0 := time.Now()
		ing, res, err := ingestFile(inputs[i], shape.ceilingMiB, fmt.Sprintf("read-%03d", read))
		lat = append(lat, time.Since(t0))
		if read < len(inputs) {
			heap += liveHeapMiB()
			runtime.KeepAlive(ing)
		}
		var n int
		var sum string
		if err == nil {
			n, sum, err = b.checkIngest(inputs[i], shape, res)
		}
		b.op(err)
		if err != nil {
			continue
		}
		if read < len(inputs) {
			sums[i] = sum
			planted += int64(inputs[i].spec.Planted)
			found += int64(n)
		} else {
			b.check(sum == sums[i], "stream %d: read %d reported different races than the first read", i, read)
		}
	}
	b.set("live_heap_mib", heap/float64(len(inputs)), fmt.Sprintf("mean after reading each file, ceiling %d MiB", shape.ceilingMiB))
	p50 := median(lat)
	b.set("latency_p50_ms", ms(p50), fmt.Sprintf("per %d-event stream (%.0f events/s), n=%d%s",
		events, float64(events)/p50.Seconds(), len(lat), tail(lat)))
	b.set("recall", float64(found)/float64(planted), fmt.Sprintf("%d of %d planted races", found, planted))
	b.digest("ingest-races", digestStrings(sums))
	return nil
}

// writeStream writes in's synthetic stream to its file.
func writeStream(in *ingestInput) error {
	f, err := os.Create(in.path)
	if err != nil {
		return err
	}
	if err := in.spec.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(in.path)
	if err != nil {
		return err
	}
	in.size = st.Size()
	return nil
}

// ingestFile reads one stream file through a fresh Ingestor, which it
// returns so the caller can measure what the Ingestor retains.
func ingestFile(in ingestInput, ceilingMiB int, runID string) (*stream.Ingestor, stream.Result, error) {
	f, err := os.Open(in.path)
	if err != nil {
		return nil, stream.Result{}, err
	}
	defer f.Close()
	ing, err := stream.NewIngestor(stream.Config{
		MemCeilingMiB: ceilingMiB,
		Seed:          in.spec.Seed,
		Collector:     corpus.NewCollector(runID),
	})
	if err != nil {
		return nil, stream.Result{}, err
	}
	res, err := ing.Ingest(context.Background(), f)
	return ing, res, err
}

// checkIngest applies the ingest correctness checks to one read. It
// returns the planted races found, a digest of the race hashes, and an
// error that fails the read: a short read or a false report. The
// synthetic noise is race-free by construction, so any report off a
// planted address is a false positive.
func (b *bench) checkIngest(in ingestInput, shape ingestShape, res stream.Result) (int, string, error) {
	spec := in.spec
	if res.Events != uint64(spec.Events) {
		return 0, "", fmt.Errorf("stream seed %d: consumed %d events, wrote %d", spec.Seed, res.Events, spec.Events)
	}
	lo, hi := plantedRange(spec)
	hashes := make([]string, 0, len(res.Races))
	for _, r := range res.Races {
		for _, a := range []trace.Addr{r.First.Addr, r.Second.Addr} {
			if a < lo || a > hi {
				return 0, "", fmt.Errorf("stream seed %d: false report at address %#x", spec.Seed, uint64(a))
			}
		}
		hashes = append(hashes, r.Hash())
	}
	n := spec.DetectedPlanted(res.Races)
	if shape.resident {
		b.check(n == spec.Planted, "stream seed %d: found %d of %d planted races under a resident ceiling", spec.Seed, n, spec.Planted)
		b.check(res.Stats.Evictions == 0, "stream seed %d: %d evictions under a resident ceiling", spec.Seed, res.Stats.Evictions)
	}
	return n, digestStrings(hashes), nil
}

// digestStrings hashes an ordered list of strings.
func digestStrings(ss []string) string {
	h := sha256.New()
	for _, s := range ss {
		fmt.Fprintf(h, "%d:%s\n", len(s), s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceIngest is the traced run. Each file is ingested whole, timing
// the Ingest call as one span, and then driven through each layer's
// public calls in chunks of traceChunk events, one span per chunk per
// layer. The two alternate file by file for traceRounds rounds, so that
// host drift over the run does not fall on one side of the comparison.
func traceIngest(b *bench, shape ingestShape, inputs []ingestInput) error {
	tr := b.tr
	var untracedWall, tracedWall time.Duration
	var st layerStats
	var passes int64
	for read := 0; read < traceRounds*len(inputs); read++ {
		i, in := read%len(inputs), inputs[read%len(inputs)]
		t0 := time.Now()
		id := tr.begin("stream.ingest", 0, int64(2*read+1))
		_, res, err := ingestFile(in, shape.ceilingMiB, fmt.Sprintf("read-%03d", read))
		tr.end(id, counts{Events: int64(res.Events), Reports: int64(len(res.Races))})
		untracedWall += time.Since(t0)
		var sum string
		if err == nil {
			_, sum, err = b.checkIngest(in, shape, res)
		}
		b.op(err)

		t0 = time.Now()
		s, err := traceIngestFile(tr, int64(2*read+2), in, shape.ceilingMiB)
		tracedWall += time.Since(t0)
		b.op(err)
		if err != nil {
			continue
		}
		b.check(s.digest == sum, "stream %d: layer-by-layer pass reported different races than Ingest", i)
		st = st.add(s)
		passes++
	}

	ls := tr.layers()
	n := ls["stream.ingest"].counts.Events
	nsPer := func(name string) float64 { return per(float64(ls[name].self), n) }
	decode, window, det := nsPer("trace.decode"), nsPer("trace.window"), nsPer("detector.handle")
	fold := nsPer("corpus.fold")
	ingest := per(float64(ls["stream.ingest"].wall), n)
	b.set("bench.trace_overhead_ratio", tracedWall.Seconds()/untracedWall.Seconds(), "layer pass / Ingest calls")
	b.set("trace.decode_ns_per_event", decode, ls["trace.decode"].String())
	b.set("trace.decode_allocs_per_event", per(float64(ls["trace.decode"].counts.Allocs), n), "")
	b.set("trace.bytes_per_event", per(float64(ls["stream.read"].counts.Bytes), n), "")
	b.set("trace.window_ns_per_event", window, ls["trace.window"].String())
	b.set("detector.ns_per_event", det, ls["detector.handle"].String())
	b.set("detector.allocs_per_event", per(float64(ls["detector.handle"].counts.Allocs), n), "")
	b.set("detector.evictions_per_kevent", per(1000*float64(st.evictions), n), fmt.Sprintf("%d evictions", st.evictions))
	b.set("detector.reloads_per_kevent", per(1000*float64(st.reloads), n), fmt.Sprintf("%d reloads", st.reloads))
	b.set("detector.live_pages", per(float64(st.livePages), passes), "mean at stream end")
	b.set("detector.fast_path_read_ratio", per(float64(st.fastReads), st.reads), fmt.Sprintf("%d reads", st.reads))
	b.set("corpus.fold_us_per_report", per(float64(ls["corpus.fold"].self)/1e3, ls["corpus.fold"].counts.Reports), ls["corpus.fold"].String())
	b.set("stream.ingest_ns_per_event", ingest, ls["stream.ingest"].String())
	b.set("stream.unaccounted_ns_per_event", ingest-decode-window-det-fold, "ingest minus the four layers")
	return nil
}

// layerStats totals the detector counters of the layer-by-layer pass.
type layerStats struct {
	evictions, reloads, livePages, fastReads, reads int64
	digest                                          string
}

func (s layerStats) add(o layerStats) layerStats {
	return layerStats{
		evictions: s.evictions + o.evictions,
		reloads:   s.reloads + o.reloads,
		livePages: s.livePages + o.livePages,
		fastReads: s.fastReads + o.fastReads,
		reads:     s.reads + o.reads,
	}
}

// raceCounter is the cheap manifestation probe of the FastTrack family.
type raceCounter interface{ RaceCount() int }

// traceIngestFile drives one file through trace.Decoder, the window
// recorder, the ceiling-budgeted detector and the collector fold, one
// span per layer per chunk, all under one stream.read span.
func traceIngestFile(tr *tracer, op int64, in ingestInput, ceilingMiB int) (layerStats, error) {
	var st layerStats
	f, err := os.Open(in.path)
	if err != nil {
		return st, err
	}
	defer f.Close()
	read := tr.begin("stream.read", 0, op)
	// The Ingestor only builds the detector with its page budget; the
	// window and the fold are driven here.
	ing, err := stream.NewIngestor(stream.Config{MemCeilingMiB: ceilingMiB, Window: -1})
	if err != nil {
		return st, err
	}
	det := ing.Detector()
	counter, ok := det.(raceCounter)
	if !ok {
		return st, fmt.Errorf("detector %s has no race counter", ing.DetectorName())
	}
	win := trace.NewWindowRecorder(stream.DefaultWindow)
	coll := corpus.NewCollector(fmt.Sprintf("layers-%d", op))
	allocs := newAllocCounter()

	id := tr.begin("trace.decode", read, op)
	a0, _ := allocs.read()
	dec, err := trace.NewDecoder(f)
	a1, _ := allocs.read()
	tr.end(id, counts{Allocs: a1 - a0})
	if err != nil {
		return st, err
	}
	buf := make([]trace.Event, 0, traceChunk)
	folded := 0
	var events int64
	for eof := false; !eof; {
		id = tr.begin("trace.decode", read, op)
		a0, _ = allocs.read()
		buf = buf[:0]
		for len(buf) < traceChunk {
			ev, err := dec.Next()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return st, err
			}
			buf = append(buf, ev)
		}
		a1, _ = allocs.read()
		tr.end(id, counts{Events: int64(len(buf)), Allocs: a1 - a0})
		events += int64(len(buf))
		for _, ev := range buf {
			if ev.Op.IsAccess() && !ev.Op.IsWrite() {
				st.reads++
			}
		}

		id = tr.begin("trace.window", read, op)
		for _, ev := range buf {
			win.HandleEvent(ev)
		}
		tr.end(id, counts{Events: int64(len(buf))})

		id = tr.begin("detector.handle", read, op)
		a0, _ = allocs.read()
		for _, ev := range buf {
			det.HandleEvent(ev)
		}
		a1, _ = allocs.read()
		tr.end(id, counts{Events: int64(len(buf)), Allocs: a1 - a0})

		// Ingest folds each report as it manifests, with the window of
		// that moment; fold them one at a time so the fold work matches.
		for n := counter.RaceCount(); folded < n; folded++ {
			id = tr.begin("corpus.fold", read, op)
			coll.FoldRaces(0, "stream", ing.DetectorName(), in.spec.Seed, det.Races()[folded:folded+1], win.Events())
			tr.end(id, counts{Reports: 1})
		}
	}
	tr.end(read, counts{Events: events, Bytes: in.size})

	stats := det.Stats()
	st.evictions, st.reloads, st.fastReads = int64(stats.Evictions), int64(stats.Reloads), int64(stats.FastPathReads)
	if ev, ok := det.(detector.Evictor); ok {
		st.livePages = int64(ev.LivePages())
	}
	hashes := make([]string, 0, folded)
	for _, r := range det.Races() {
		hashes = append(hashes, r.Hash())
	}
	st.digest = digestStrings(hashes)
	return st, nil
}
