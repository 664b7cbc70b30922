package corpus

import (
	"gorace/internal/report"
	"gorace/internal/trace"
)

// NoteExecution counts one program execution (or ingested stream)
// against the run marker without routing it through a sweep.Run.
// Streaming ingest (internal/stream) calls it once per stream, since
// its races arrive incrementally via FoldWindow rather than as one
// Outcome at run end.
func (c *Collector) NoteExecution() { c.executions++ }

// FoldRaces folds race reports that manifested mid-stream into the
// collector, deduplicating and classifying exactly as Observe does for
// batch outcomes: every report counts toward the unit's occurrence
// tallies, and a hash seen for the first time becomes the defect's
// defining report, classified against window — the recent-events
// window retained at manifestation time, in Seq order (may be nil;
// classification then runs without trace hints). With a trace dir
// configured, the first manifestation also retains a snapshot of the
// window so the stored defect stays replayable.
//
// unitID and detName attribute the defect; detName must be a registry
// name (empty selects detector.DefaultName). It returns the number of
// defects newly defined by this fold, so callers can log only on
// first manifestation.
//
// Like the rest of Collector, FoldRaces is not concurrency-safe; the
// service serializes folds under its writer lock.
func (c *Collector) FoldRaces(unitIdx int, unitID, detName string, seed int64, races []report.Race, window []trace.Event) int {
	return c.fold(unitIdx, unitID, detName, seed, races, foldSource{events: window})
}

// FoldWindow is FoldRaces reading the window where it lives: the
// hints come from win's rings in place (classify.HintsFromWindow), and
// win is merged into a Seq-ordered snapshot only when a trace dir must
// retain a fresh defect's window. Records and retained traces equal
// those of FoldRaces(…, win.Events()); a fold that defines nothing
// costs the dedup alone. win may be nil (no trace hints, nothing
// retained).
func (c *Collector) FoldWindow(unitIdx int, unitID, detName string, seed int64, races []report.Race, win *trace.WindowRecorder) int {
	return c.fold(unitIdx, unitID, detName, seed, races, foldSource{win: win})
}
