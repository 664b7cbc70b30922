package corpus

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"gorace/internal/classify"
	"gorace/internal/detector"
	"gorace/internal/report"
	"gorace/internal/sweep"
	"gorace/internal/taxonomy"
	"gorace/internal/trace"
)

// Collector is the sweep aggregator that folds a campaign straight
// into a corpus store: it deduplicates race reports per unit with the
// §3.3.1 hash, counts occurrences, classifies each defect's first
// manifesting report while its trace is still at hand, and (with
// WithTraceDir) retains that trace for replay. AppendTo then writes
// one run marker plus one Record per defect.
//
// Use one Collector per campaign run id, as a sweep.Factory:
//
//	coll := func() sweep.Aggregator { return corpus.NewCollector(runID) }
//	aggs, _, err := sweep.New().Run(units, coll)
//	err = aggs[0].(*corpus.Collector).AppendTo(store)
//
// Like every sweep aggregator, the engine folds shard instances in
// shard order, so the collected corpus — including which seed's trace
// defines each defect — is deterministic at any parallelism.
type Collector struct {
	runID    string
	label    string
	traceDir string

	executions int
	reports    int
	units      sweep.Units[*unitAgg]
}

// unitAgg is one unit's deduplicated defects.
type unitAgg struct {
	counts map[string]uint64 // race hash -> raw reports observed
	order  []string          // hashes in first-manifestation order
	defs   map[string]*defining
}

// defining is a defect's first manifesting report and its context.
type defining struct {
	unit     string
	seed     int64
	race     report.Race
	detector string // registry name, replayable via detector.New
	labels   []taxonomy.Category
	trace    *trace.Recorder // retained for WithTraceDir, else nil
}

// CollectorOption configures a Collector.
type CollectorOption func(*Collector)

// WithRunLabel attaches free-form metadata to the run marker
// ("nightly", "ci-1234", ...).
func WithRunLabel(label string) CollectorOption {
	return func(c *Collector) { c.label = label }
}

// WithTraceDir retains each defect's defining trace (for units that
// record) and saves it under dir — in the binary trace codec, named
// TraceFileName(key) — when the collector is appended to a store. The
// record's TracePath points at the saved file.
func WithTraceDir(dir string) CollectorOption {
	return func(c *Collector) { c.traceDir = dir }
}

// NewCollector returns an empty Collector for one campaign run.
func NewCollector(runID string, opts ...CollectorOption) *Collector {
	c := &Collector{runID: runID}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// NewCollectorFromRecords reconstructs a collector from transported
// shard records — the corpus half of remote-result folding. A
// distributed worker ships its shard's Records() (plus execution and
// report counts) as a binary delta; the coordinator rebuilds the
// collector here and folds it into the campaign root with Merge, in
// shard order, yielding exactly the corpus a local run of the same
// shards would have collected. unitIdx maps each record's Unit id
// back to its campaign unit index (the coordinate Merge folds by);
// an unknown unit is an error — it means the two nodes disagree about
// the campaign spec. Traces are not transported: reconstructed
// defects carry no retained trace.
func NewCollectorFromRecords(runID string, executions, reports int, recs []Record, unitIdx map[string]int) (*Collector, error) {
	c := &Collector{runID: runID, executions: executions, reports: reports}
	for _, rec := range recs {
		idx, ok := unitIdx[rec.Unit]
		if !ok {
			return nil, fmt.Errorf("corpus: shard record for unknown unit %q", rec.Unit)
		}
		h := strings.TrimPrefix(rec.Key, rec.Unit+"/")
		ua := c.unit(idx)
		if _, dup := ua.defs[h]; dup {
			return nil, fmt.Errorf("corpus: duplicate shard record %q", rec.Key)
		}
		ua.counts[h] += rec.Count
		ua.order = append(ua.order, h)
		ua.defs[h] = &defining{
			unit:     rec.Unit,
			race:     rec.Race,
			detector: rec.Detector,
			labels:   rec.Labels,
		}
	}
	return c, nil
}

// RunID returns the run id this collector attributes its defects to.
func (c *Collector) RunID() string { return c.runID }

func (c *Collector) unit(idx int) *unitAgg { return c.units.Ensure(idx, newUnitAgg) }

func newUnitAgg() *unitAgg {
	return &unitAgg{
		counts: make(map[string]uint64),
		defs:   make(map[string]*defining),
	}
}

// Observe implements sweep.Aggregator: one execution, folded with
// the same dedup-and-classify step as FoldRaces. The run's trace is
// borrowed (valid only during Observe), so a defect defined here under
// WithTraceDir retains a copy of it.
func (c *Collector) Observe(r sweep.Run) {
	c.executions++
	var events []trace.Event
	if r.Outcome.Trace != nil {
		events = r.Outcome.Trace.Events
	}
	c.fold(r.UnitIdx, r.Unit.ID, r.Unit.Detector, r.Seed, r.Outcome.Races,
		foldSource{events: events})
}

// foldSource is the trace context a fold's fresh defects draw on:
// recorded events — a batch outcome's borrowed trace, or a window a
// caller merged — or a live streaming window, read in place.
type foldSource struct {
	events []trace.Event
	win    *trace.WindowRecorder
}

// hints returns the classification hints of the source's events.
func (s foldSource) hints() classify.Hints {
	if s.win != nil {
		return classify.HintsFromWindow(s.win)
	}
	return classify.HintsFromTrace(s.events)
}

// retained returns the trace a trace dir keeps for a fresh defect: a
// copy of the events (nil when there are none). Only here is a window
// merged into Seq order.
func (s foldSource) retained() *trace.Recorder {
	switch {
	case s.win != nil && s.win.Retained() > 0:
		return &trace.Recorder{Events: s.win.Events()}
	case len(s.events) > 0:
		return &trace.Recorder{Events: slices.Clone(s.events)}
	}
	return nil
}

// fold is the one defect fold behind Observe, FoldRaces and
// FoldWindow: count every report against its hash, then define each
// hash seen for the first time from its first report, classified
// against src. The trace hints are computed once, and only if some
// hash is fresh; with a trace dir configured, that first fresh hash
// also snapshots src's trace, which every fresh defect of the fold
// retains so the stored defect stays replayable. It returns the number
// of fresh defects.
func (c *Collector) fold(unitIdx int, unitID, detName string, seed int64, races []report.Race, src foldSource) int {
	c.reports += len(races)
	if len(races) == 0 {
		return 0
	}
	// Record the *registry* detector name, not the report's display
	// name, so `racedb replay` can resolve it.
	if detName == "" {
		detName = detector.DefaultName
	}
	ua := c.unit(unitIdx)
	// Sorted as report.UniqueByHash sorts, each race hashed once: the
	// first race of each run of equal hashes is its representative.
	sorted := slices.Clone(races)
	hs := report.SortByHash(sorted)
	for _, h := range hs {
		ua.counts[h]++
	}
	fresh := 0
	var (
		hints classify.Hints
		kept  *trace.Recorder
	)
	for i, race := range sorted {
		h := hs[i]
		if i > 0 && hs[i-1] == h {
			continue
		}
		if _, ok := ua.defs[h]; ok {
			continue
		}
		if fresh == 0 {
			hints = src.hints()
			if c.traceDir != "" {
				kept = src.retained()
			}
		}
		d := &defining{
			unit:     unitID,
			seed:     seed,
			race:     race,
			detector: detName,
			labels:   classify.Classify(race, hints),
			trace:    kept,
		}
		ua.order = append(ua.order, h)
		ua.defs[h] = d
		fresh++
	}
	return fresh
}

// Merge implements sweep.Aggregator: next covers strictly later runs,
// so its defining reports only fill hashes this instance never saw.
func (c *Collector) Merge(next sweep.Aggregator) {
	o := next.(*Collector)
	c.executions += o.executions
	c.reports += o.reports
	o.units.Each(func(idx int, oua *unitAgg) {
		ua := c.unit(idx)
		for h, n := range oua.counts {
			ua.counts[h] += n
		}
		for _, h := range oua.order {
			if _, ok := ua.defs[h]; ok {
				continue
			}
			ua.order = append(ua.order, h)
			ua.defs[h] = oua.defs[h]
		}
	})
}

// Executions returns the number of program executions observed.
func (c *Collector) Executions() int { return c.executions }

// Reports returns the number of raw race reports observed.
func (c *Collector) Reports() int { return c.reports }

// Defects returns the number of deduplicated defects collected.
func (c *Collector) Defects() int {
	n := 0
	c.units.Each(func(_ int, ua *unitAgg) { n += len(ua.order) })
	return n
}

// Records renders the collected corpus as store records for this run,
// in canonical order (unit index, then first manifestation within the
// unit). TracePath is left empty; AppendTo fills it when saving
// traces.
func (c *Collector) Records() []Record {
	out := make([]Record, 0, c.Defects())
	c.units.Each(func(_ int, ua *unitAgg) {
		for _, h := range ua.order {
			d := ua.defs[h]
			rec := Record{
				Key:      d.unit + "/" + h,
				Unit:     d.unit,
				RunIDs:   []string{c.runID},
				Count:    ua.counts[h],
				Labels:   d.labels,
				Detector: d.detector,
				Race:     d.race,
			}
			if len(d.labels) > 0 {
				rec.Category = d.labels[0]
			}
			out = append(out, rec)
		}
	})
	return out
}

// FirstCategories is the campaign's root-cause tally: the primary
// label of each unit's first record — its first manifesting run's
// first race — counted over recs in canonical order (Records).
// Unlabelled first records count nothing. `racedetect -campaign` and
// raced's job results both tally with it.
func FirstCategories(recs []Record) map[taxonomy.Category]int {
	counts := make(map[taxonomy.Category]int)
	for i, rec := range recs {
		if (i == 0 || rec.Unit != recs[i-1].Unit) && rec.Category != "" {
			counts[rec.Category]++
		}
	}
	return counts
}

// AppendTo writes the run marker and every collected defect to the
// store; with WithTraceDir it first saves each defect's defining
// trace and points the record at it. Call once, on the campaign's
// root collector.
func (c *Collector) AppendTo(store *Store) error {
	err := store.AppendRun(RunInfo{
		ID: c.runID, Label: c.label,
		Executions: c.executions, Reports: c.reports,
	})
	if err != nil {
		return err
	}
	recs := c.Records()
	if c.traceDir != "" {
		if err := os.MkdirAll(c.traceDir, 0o755); err != nil {
			return fmt.Errorf("corpus: trace dir: %w", err)
		}
		var traces []*trace.Recorder // parallel to recs
		c.units.Each(func(_ int, ua *unitAgg) {
			for _, h := range ua.order {
				traces = append(traces, ua.defs[h].trace)
			}
		})
		for i, tr := range traces {
			if tr == nil {
				continue
			}
			path := TracePathIn(c.traceDir, recs[i].Key)
			if err := saveTrace(path, tr); err != nil {
				return err
			}
			recs[i].TracePath = path
		}
	}
	if err := store.Append(recs...); err != nil {
		return err
	}
	// One fsync per run, not per record: the whole night becomes
	// power-loss durable at the batch boundary.
	return store.Sync()
}

func saveTrace(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("corpus: save trace: %w", err)
	}
	if err := rec.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("corpus: save trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("corpus: save trace %s: %w", path, err)
	}
	return nil
}
