// Package stream runs race detection online over unbounded event
// streams under a hard memory ceiling — the deployment shape of the
// paper's always-on production mode, where the monitored service
// outlives any buffer the detector could afford to keep.
//
// Batch detection (internal/core) holds three things whose footprint
// grows with run length: the full recorded trace, the detector's
// shadow memory, and the report set. Streaming replaces the first two
// with bounded structures:
//
//   - the trace is retained as a per-goroutine window of recent events
//     (trace.WindowRecorder), so a race that manifests mid-stream still
//     emits a classify-able report without pinning the whole history;
//     the window exists only when a Collector receives folds, so a
//     plain post-facto replay retains no events at all;
//   - shadow memory is paged and evictable (detector.Evictor, which
//     FastTrack implements): past the configured ceiling the
//     least-recently-touched shadow page is reclaimed, the head of
//     the detector's LRU list, in O(1) per eviction. Eviction
//     forgets access history, so races straddling an evicted page are
//     missed — false negatives only, never false positives; the
//     contract is spelled out in docs/STREAMING.md.
//
// An Ingestor wraps one registered detector and consumes the binary
// trace codec ("GRTB", counted or streamed) from any io.Reader,
// folding defects into a corpus.Collector as they manifest. It is the
// one path that re-detects a saved trace: racedetect -stream, racedb
// replay, and raced's replay and ingest endpoints all run it. Each
// Ingest call decodes ahead of detection: a decoder goroutine fills
// batches of checkEvery events while the calling goroutine detects the
// previous batch, with at most three batches (about 310 KiB) in flight.
// Detection order, fold points and window contents are those of a
// serial loop, and the decoder is joined before Ingest returns. With no
// ceiling the detector never evicts and streaming results are
// report-identical to a batch replay of the same events
// (differential_test.go pins this over the progen and dogfood corpora).
package stream

import (
	"context"
	"fmt"
	"io"

	"gorace/internal/corpus"
	"gorace/internal/detector"
	"gorace/internal/report"
	"gorace/internal/trace"
)

// DefaultWindow is the per-goroutine recent-event retention used when
// Config.Window is zero: deep enough to carry the racing accesses'
// surrounding sync context into classification, shallow enough that a
// thousand goroutines retain only a few MiB.
const DefaultWindow = 1024

// shadowFraction is the slice of the memory ceiling granted to shadow
// pages: ceiling/shadowFraction bytes of resident cells. The rest
// covers what paging cannot evict — promoted reader lists, the stack
// depot, per-goroutine windows, and retained reports.
const shadowFraction = 4

// checkEvery is the decode-ahead batch size: how many events the
// decoder hands over at once, and so how many pass between
// context-cancellation checks in the ingest loop.
const checkEvery = 1024

// Config configures an Ingestor.
type Config struct {
	// Detector is the registry name to run ("" selects the default).
	// Under a ceiling the detector must implement detector.Evictor
	// (the fasttrack family does); any other name is an error.
	Detector string
	// MemCeilingMiB bounds the detector's resident shadow state, in
	// MiB. 0 means unbounded: no eviction, batch-identical reports.
	MemCeilingMiB int
	// Window is the per-goroutine recent-event retention (default
	// DefaultWindow) that folded defects classify against. Negative
	// disables trace retention entirely; defects then classify without
	// trace hints. Without a Collector nothing is folded, so no window
	// is kept whatever Window says.
	Window int
	// Unit and UnitIdx attribute folded defects within the Collector
	// (Unit defaults to "stream").
	Unit    string
	UnitIdx int
	// Seed is recorded as the defining seed of folded defects; for
	// ingested production streams it is an opaque stream id.
	Seed int64
	// Collector, when set, receives defects online: each first
	// manifestation is folded with the window retained at that
	// moment. The Ingestor does not lock the Collector — callers
	// serialize folds (the service holds its writer lock across
	// Ingest).
	Collector *corpus.Collector
}

// Result summarizes one ingested stream.
type Result struct {
	// Events is the number of events consumed, including any consumed
	// before a mid-stream error.
	Events uint64
	// Races holds every report the detector made, in manifestation
	// order.
	Races []report.Race
	// NewDefects counts defects this stream defined in the Collector
	// (first manifestations; 0 without a Collector).
	NewDefects int
	// Stats is the detector's final work summary; under a ceiling its
	// Evictions and Reloads quantify what bounded memory cost.
	Stats detector.Stats
}

// Ingestor runs one detector over successive event streams. It is not
// concurrency-safe; the service runs one Ingestor per ingest request.
type Ingestor struct {
	cfg     Config
	det     detector.Detector
	detName string
	win     *trace.WindowRecorder
	pages   int
	folded  int // reports already folded into the collector
}

// NewIngestor builds an Ingestor from cfg, resolving the detector
// through the registry and, under a ceiling, sizing its page budget to
// ceiling/4 bytes of resident shadow cells.
func NewIngestor(cfg Config) (*Ingestor, error) {
	name := cfg.Detector
	det, err := detector.New(name)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = detector.DefaultName
	}
	in := &Ingestor{cfg: cfg, det: det, detName: name}
	if cfg.MemCeilingMiB > 0 {
		ev, ok := det.(detector.Evictor)
		if !ok {
			return nil, fmt.Errorf("stream: detector %q cannot run under a memory ceiling (no paged shadow state); use %s", name, detector.DefaultName)
		}
		in.pages = (cfg.MemCeilingMiB << 20) / shadowFraction / ev.PageBytes()
		if in.pages < 1 {
			in.pages = 1
		}
		ev.SetPageBudget(in.pages)
	}
	// The window is read only by foldNew, so without a Collector no
	// events are retained: a post-facto replay costs shadow state only.
	if cfg.Collector != nil {
		switch {
		case cfg.Window > 0:
			in.win = trace.NewWindowRecorder(cfg.Window)
		case cfg.Window == 0:
			in.win = trace.NewWindowRecorder(DefaultWindow)
		}
	}
	return in, nil
}

// Detector exposes the wrapped detector, for stats inspection after
// ingest.
func (in *Ingestor) Detector() detector.Detector { return in.det }

// DetectorName returns the registry name the Ingestor was asked for
// ("" resolved to detector.DefaultName).
func (in *Ingestor) DetectorName() string { return in.detName }

// PageBudget returns the resident shadow-page bound derived from the
// ceiling (0 when unbounded).
func (in *Ingestor) PageBudget() int { return in.pages }

// raceCounter is the O(1) manifestation probe implemented by the
// FastTrack family; detectors without it fold only at stream end.
type raceCounter interface {
	RaceCount() int
}

// Ingest decodes events from r (binary codec, counted or streamed;
// anything else fails with trace.ErrNotTrace) and feeds them through the detector until
// EOF, error, or context cancellation. Races are folded into the
// configured Collector as they manifest, each with the event window
// retained at that moment. The detector's state persists across calls,
// so one Ingestor may consume a stream delivered in several chunks;
// the execution is counted against the Collector once per Ingest.
//
// Decoding runs one batch ahead of detection on its own goroutine
// (see decodeAhead); detection, folds and the window see the events
// in stream order on the calling goroutine, as a serial loop would.
// The context is checked once per batch of checkEvery events. On a
// decode error or cancellation the events consumed so far have been
// fully detected and folded; the Result reflects them, alongside the
// error. Ingest joins the decoder before it returns, so r is never
// read afterwards, and a panic raised while reading r is re-raised
// here.
func (in *Ingestor) Ingest(ctx context.Context, r io.Reader) (res Result, err error) {
	before := len(in.det.Races())
	// Named returns: the finalizer below must land in the Result the
	// caller sees, on every exit path including mid-stream errors.
	defer func() {
		res.Stats = in.det.Stats()
		res.Races = append(res.Races, in.det.Races()[before:]...)
		if in.cfg.Collector != nil {
			in.cfg.Collector.NoteExecution()
		}
	}()
	dec, err := trace.NewDecoder(r)
	if err != nil {
		return res, err
	}
	p := decodeAhead(dec)
	defer p.stop()
	counter, fast := in.det.(raceCounter)
	for {
		if err := ctx.Err(); err != nil {
			in.foldNew(&res, len(in.det.Races()))
			return res, err
		}
		b := p.next()
		if b == nil {
			return res, nil // the decoder panicked; stop re-raises it
		}
		for _, ev := range b.events {
			if in.win != nil {
				in.win.HandleEvent(ev)
			}
			in.det.HandleEvent(ev)
			res.Events++
			if fast && counter.RaceCount() > in.folded {
				in.foldNew(&res, counter.RaceCount())
			}
		}
		if b.err != nil {
			in.foldNew(&res, len(in.det.Races()))
			if b.err == io.EOF {
				return res, nil
			}
			return res, b.err
		}
	}
}

// batch is one handoff of the decode-ahead pipeline: up to checkEvery
// decoded events, then the error that ended decoding (io.EOF at a
// clean end), if any.
type batch struct {
	events []trace.Event
	err    error
}

// pipeDepth is how many decoded batches may wait for detection. With
// the one being detected, at most pipeDepth+1 batches exist, so the
// decoder runs at most pipeDepth batches ahead.
const pipeDepth = 2

// pipeline is the decoder half of Ingest, running on its own
// goroutine. Batches travel to the caller over full and come back
// over free once detected, so no batch is reused while the caller
// still reads it. free has room for every batch, so handing one back
// never blocks.
type pipeline struct {
	full, free chan *batch
	held       *batch // the batch the caller is detecting
	quit, done chan struct{}
	panicked   any // set by the decoder before done closes
}

// decodeAhead starts decoding dec into batches on a new goroutine. A
// batch's buffer is allocated at full size on its first fill, so a
// short stream pays for one batch, not three.
func decodeAhead(dec *trace.Decoder) *pipeline {
	p := &pipeline{
		full: make(chan *batch, pipeDepth),
		free: make(chan *batch, pipeDepth+1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := 0; i < pipeDepth+1; i++ {
		p.free <- new(batch)
	}
	go p.decode(dec)
	return p
}

// decode fills free batches until the stream ends or the caller
// quits. A panic (a panicking io.Reader, say) is kept for stop to
// re-raise on the caller's goroutine; closing full wakes a caller
// waiting in next.
func (p *pipeline) decode(dec *trace.Decoder) {
	defer close(p.done)
	defer close(p.full)
	defer func() { p.panicked = recover() }()
	for {
		var b *batch
		select {
		case b = <-p.free:
		case <-p.quit:
			return
		}
		if b.events == nil {
			b.events = make([]trace.Event, 0, checkEvery)
		}
		b.events = b.events[:0]
		for len(b.events) < checkEvery {
			ev, err := dec.Next()
			if err != nil {
				b.err = err
				break
			}
			b.events = append(b.events, ev)
		}
		select {
		case p.full <- b:
		case <-p.quit:
			return
		}
		if b.err != nil {
			return
		}
	}
}

// next returns the next decoded batch, handing the previous one back
// to the decoder; nil means the decoder panicked. The previous batch
// is released only now, after the caller's context check, so on
// cancellation at most pipeDepth batches were decoded and not detected.
func (p *pipeline) next() *batch {
	if p.held != nil {
		p.free <- p.held
	}
	p.held = <-p.full
	return p.held
}

// stop ends the decoder, waits for it to exit so the reader is never
// touched after Ingest returns, and re-raises a decoder panic.
func (p *pipeline) stop() {
	close(p.quit)
	<-p.done
	if p.panicked != nil {
		panic(p.panicked)
	}
}

// foldNew folds reports [in.folded, n) into the collector with the
// current window, read in place, as classification context. The
// watermark lives on the Ingestor so chunked streams never fold the
// same report twice.
func (in *Ingestor) foldNew(res *Result, n int) {
	if in.cfg.Collector == nil || n <= in.folded {
		in.folded = n
		return
	}
	races := in.det.Races()[in.folded:n]
	unit := in.cfg.Unit
	if unit == "" {
		unit = "stream"
	}
	res.NewDefects += in.cfg.Collector.FoldWindow(
		in.cfg.UnitIdx, unit, in.detName, in.cfg.Seed, races, in.win)
	in.folded = n
}
