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
// replay, and raced's replay and ingest endpoints all run it. With no
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

// checkEvery is how many events pass between context-cancellation
// checks in the ingest loop.
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
// On a decode error or cancellation the events consumed so far have
// been fully detected and folded; the Result reflects them, alongside
// the error.
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
	counter, fast := in.det.(raceCounter)
	for {
		if res.Events%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				in.foldNew(&res, len(in.det.Races()))
				return res, err
			}
		}
		ev, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			in.foldNew(&res, len(in.det.Races()))
			return res, err
		}
		if in.win != nil {
			in.win.HandleEvent(ev)
		}
		in.det.HandleEvent(ev)
		res.Events++
		if fast && counter.RaceCount() > in.folded {
			in.foldNew(&res, counter.RaceCount())
		}
	}
	in.foldNew(&res, len(in.det.Races()))
	return res, nil
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
