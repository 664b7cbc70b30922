// Package corpus is the persistent race-corpus store: the layer that
// turns one-shot detection into the paper's longitudinal study engine.
//
// The paper's headline numbers come from running detection
// continuously over a monorepo and studying the *accumulated* corpus
// of deduplicated races across months of nightly runs (§3.3, §4). A
// Store persists that accumulation on disk: one Record per
// deduplicated defect — keyed by the unit-scoped §3.3.1 dedup hash —
// carrying the run ids it was seen in, its total occurrence count,
// its root-cause labels from internal/classify, and an optional
// pointer to a saved binary trace for post-facto replay.
//
// The file is an append-only log of CRC-framed records (see codec.go
// for the exact layout); Open folds the log into per-key state, so a
// defect appended by fifty nightly runs is one Record with fifty run
// ids. Append is crash-safe — a torn final frame is detected and
// truncated on the next Open, losing at most the in-flight record —
// and Compact atomically rewrites the log in folded form via a
// temp-file rename.
//
// Run ids are ordered by string comparison, so choose ids that sort
// chronologically (ISO timestamps, zero-padded counters). The fold
// unions run-id sets, sums occurrence counts, and keeps each defect's
// earliest-run defining report, so appending the same per-run records
// in any order converges on one state. A store's folded state travels
// between nodes as a delta (see delta.go), which read replicas rebuild
// into a View.
package corpus

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"gorace/internal/report"
	"gorace/internal/taxonomy"
)

// Record is one deduplicated race defect with its cross-run history.
type Record struct {
	// Key is the store-wide dedup key, "<unit>/<§3.3.1 hash>": the
	// same race pattern at two code sites is two defects.
	Key string
	// Unit names the code site (service/test, pattern/strategy, ...).
	Unit string
	// RunIDs lists the runs in which the defect was observed, sorted.
	RunIDs []string
	// Count totals raw race reports attributed to the defect across
	// all runs (before per-run dedup).
	Count uint64
	// Category is the primary root-cause label from internal/classify;
	// Labels is the full ordered label list.
	Category taxonomy.Category
	Labels   []taxonomy.Category
	// Detector is the registry name of the detector that produced the
	// defining report, resolvable with detector.New for replay.
	Detector string
	// TracePath optionally points at a saved binary trace of the
	// defining run, re-detected by stream.Ingestor (racedb replay,
	// GET /v1/replay).
	TracePath string
	// Race is the defining report: the first manifestation observed in
	// the defect's earliest run.
	Race report.Race
}

// FirstSeen returns the earliest run id the defect was seen in.
func (r Record) FirstSeen() string {
	if len(r.RunIDs) == 0 {
		return ""
	}
	return r.RunIDs[0]
}

// LastSeen returns the latest run id the defect was seen in.
func (r Record) LastSeen() string {
	if len(r.RunIDs) == 0 {
		return ""
	}
	return r.RunIDs[len(r.RunIDs)-1]
}

// SeenIn reports whether the defect was observed in the given run.
func (r Record) SeenIn(runID string) bool {
	i := sort.SearchStrings(r.RunIDs, runID)
	return i < len(r.RunIDs) && r.RunIDs[i] == runID
}

// TraceField picks how a record's JSON wire form shows its saved
// trace.
type TraceField uint8

const (
	// TracePathField emits the trace's path as "tracePath", omitted
	// when the record has none (racedb export).
	TracePathField TraceField = iota
	// HasTraceField emits only whether a trace exists, as "hasTrace",
	// always present: raced keeps paths server-side and serves the
	// trace through /v1/replay.
	HasTraceField
)

// RecordJSON is the JSON wire form of a Record, shared by racedb
// export and raced's read API. Field order and omitempty are part of
// the format; the race marshals through report.Race's own wire form.
// Exactly one of TracePath and HasTrace is rendered, as the
// TraceField given to Record.JSON says.
type RecordJSON struct {
	Key       string              `json:"key"`
	Unit      string              `json:"unit"`
	FirstSeen string              `json:"firstSeen"`
	LastSeen  string              `json:"lastSeen"`
	RunIDs    []string            `json:"runIds"`
	Count     uint64              `json:"count"`
	Category  taxonomy.Category   `json:"category,omitempty"`
	Labels    []taxonomy.Category `json:"labels,omitempty"`
	Detector  string              `json:"detector,omitempty"`
	TracePath string              `json:"tracePath,omitempty"`
	HasTrace  *bool               `json:"hasTrace,omitempty"`
	Race      report.Race         `json:"race"`
}

// JSON returns the record's wire form, showing its saved trace as
// trace says. The result shares RunIDs and Labels with r.
func (r Record) JSON(trace TraceField) RecordJSON {
	out := RecordJSON{
		Key: r.Key, Unit: r.Unit,
		FirstSeen: r.FirstSeen(), LastSeen: r.LastSeen(),
		RunIDs: r.RunIDs, Count: r.Count,
		Category: r.Category, Labels: r.Labels, Detector: r.Detector,
		Race: r.Race,
	}
	if trace == HasTraceField {
		has := r.TracePath != ""
		out.HasTrace = &has
	} else {
		out.TracePath = r.TracePath
	}
	return out
}

// RecordsJSON converts recs with Record.JSON. The result is never nil,
// so an empty list renders as [] rather than null.
func RecordsJSON(recs []Record, trace TraceField) []RecordJSON {
	out := make([]RecordJSON, len(recs))
	for i, rec := range recs {
		out[i] = rec.JSON(trace)
	}
	return out
}

// RunInfo is one appended run (e.g. one nightly sweep): the store's
// unit of history. It is also its own JSON wire form.
type RunInfo struct {
	// ID orders the run; ids compare as strings, so use forms that
	// sort chronologically.
	ID string `json:"id"`
	// Label is free-form run metadata ("nightly", "ci-1234", ...).
	Label string `json:"label,omitempty"`
	// Executions counts program executions the run performed.
	Executions int `json:"executions"`
	// Reports counts raw race reports the run observed (before dedup).
	Reports int `json:"reports"`
}

// Delta is the cross-run diff surfaced by nightly reports: defects
// new in run B, resolved since run A, and recurring in both.
type Delta struct {
	RunA, RunB string
	// New lists defects seen in B but not in A.
	New []Record
	// Resolved lists defects seen in A but not in B.
	Resolved []Record
	// Recurring lists defects seen in both runs.
	Recurring []Record
}

// Store is an open corpus store. It holds the folded state in memory
// and an append handle on the log; it is not safe for concurrent use.
// Concurrent readers should take a Snapshot — an immutable View of the
// folded state — and serialize mutations externally (internal/service
// does exactly that).
type Store struct {
	path  string
	f     *os.File
	byKey map[string]*Record
	runs  map[string]*RunInfo
	// runOrder preserves first-append order of run ids, the order
	// Runs returns (append order is chronological in normal use).
	runOrder []string
	// gen counts applied frames (records + run markers), including
	// those replayed by load. It only ever grows, so two Snapshots
	// with equal generations hold identical folded state.
	gen uint64
}

// Open opens the store at path, creating an empty one if the file
// does not exist. A torn final frame (crash mid-append) is truncated
// away; corruption anywhere before the final frame fails the open
// rather than discarding history.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("corpus: open %s: %w", path, err)
	}
	s := &Store{
		path:  path,
		f:     f,
		byKey: make(map[string]*Record),
		runs:  make(map[string]*RunInfo),
	}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load reads the whole log, folds it into memory, and truncates a
// torn tail so the file ends on a frame boundary for appending.
func (s *Store) load() error {
	data, err := io.ReadAll(s.f)
	if err != nil {
		return fmt.Errorf("corpus: read %s: %w", s.path, err)
	}
	if len(data) == 0 {
		// Fresh store: write the header.
		var e recEncoder
		e.Header(storeMagic, storeVersion)
		if _, err := s.f.Write(e.Bytes()); err != nil {
			return fmt.Errorf("corpus: write header: %w", err)
		}
		return nil
	}
	var fd frameDecoder
	if err := fd.header(data, storeMagic, storeVersion); err != nil {
		return fmt.Errorf("corpus: %s: store header: %w", s.path, err)
	}
	off := len(data) - fd.d.Buffered()

	// Scan frames until EOF. good marks the end of the last intact
	// frame. A *tail* tear — the frame extends past EOF, or the final
	// frame's CRC mismatches — is the signature of a crash mid-append
	// and is truncated away, losing at most that record. A bad frame
	// with intact frames after it is corruption, not a tear: fail the
	// open rather than silently discard history.
	good := off
	for off < len(data) {
		payload, next, err := nextFrame(data, off)
		if err == errTornTail {
			break
		}
		if err != nil {
			return fmt.Errorf("corpus: %s: frame at offset %d: %w", s.path, good, err)
		}
		// The CRC already validated, so a payload that fails to decode
		// is a writer/reader mismatch, not a tear — error even at EOF.
		if err := fd.decodePayload(payload, s); err != nil {
			return fmt.Errorf("corpus: %s: frame at offset %d: %w", s.path, good, err)
		}
		off, good = next, next
	}
	if good < len(data) {
		if err := s.f.Truncate(int64(good)); err != nil {
			return fmt.Errorf("corpus: truncate torn tail: %w", err)
		}
	}
	if _, err := s.f.Seek(int64(good), io.SeekStart); err != nil {
		return fmt.Errorf("corpus: seek: %w", err)
	}
	return nil
}

// fold merges rec into the in-memory state: run-id sets union, counts
// add, and the defect's *earliest run* supplies the defining report
// and labels (ties keep the record already in place). The defining
// run is always the folded record's FirstSeen, since the defining
// fields move exactly when an earlier run joins its run ids.
// Earliest-run-wins — rather than first-appended-wins — makes the fold
// commutative at run granularity: appending the same per-run records
// in any order converges on identical folded state. In the common
// chronological-append case (nightlies appended in run-id order) the
// two rules agree.
func (s *Store) fold(rec Record) {
	s.gen++
	cur, ok := s.byKey[rec.Key]
	if !ok {
		cp := rec
		cp.RunIDs = append([]string(nil), rec.RunIDs...)
		sort.Strings(cp.RunIDs)
		s.byKey[rec.Key] = &cp
		return
	}
	recRun := ""
	if len(rec.RunIDs) > 0 {
		ids := append([]string(nil), rec.RunIDs...)
		sort.Strings(ids)
		recRun = ids[0]
	}
	curRun := cur.FirstSeen()
	if recRun != "" && (curRun == "" || recRun < curRun) {
		// rec comes from a strictly earlier run: its defining fields
		// win, with cur's old fields only filling what rec left empty.
		old := *cur
		cur.Category, cur.Labels = rec.Category, rec.Labels
		cur.Detector, cur.TracePath = rec.Detector, rec.TracePath
		cur.Race = rec.Race
		fillDefining(cur, &old)
	} else {
		fillDefining(cur, &rec)
	}
	cur.RunIDs = mergeRuns(cur.RunIDs, rec.RunIDs)
	cur.Count += rec.Count
}

// fillDefining fills cur's empty defining fields from other, so a
// defining record that lacks (say) a trace path still picks one up
// from a later sighting — in either fold order.
func fillDefining(cur, other *Record) {
	if cur.Category == "" {
		cur.Category = other.Category
	}
	if len(cur.Labels) == 0 {
		cur.Labels = other.Labels
	}
	if cur.Detector == "" {
		cur.Detector = other.Detector
	}
	if cur.TracePath == "" {
		cur.TracePath = other.TracePath
	}
}

func (s *Store) foldRun(info RunInfo) {
	s.gen++
	cur, ok := s.runs[info.ID]
	if !ok {
		cp := info
		s.runs[info.ID] = &cp
		s.runOrder = append(s.runOrder, info.ID)
		return
	}
	cur.Executions += info.Executions
	cur.Reports += info.Reports
	if cur.Label == "" {
		cur.Label = info.Label
	}
}

// mergeRuns unions two sorted run-id lists (b need not be sorted).
func mergeRuns(a, b []string) []string {
	out := a
	for _, id := range b {
		i := sort.SearchStrings(out, id)
		if i < len(out) && out[i] == id {
			continue
		}
		out = append(out, "")
		copy(out[i+1:], out[i:])
		out[i] = id
	}
	return out
}

// Append appends records to the log and folds them into the open
// store. Each record is written as one CRC-framed Write, so a crash
// loses at most the frame being written. Appends reach the OS
// immediately but not the platter: call Sync at a batch boundary
// (Collector.AppendTo does) to make them power-loss durable.
func (s *Store) Append(recs ...Record) error {
	var e recEncoder
	for _, rec := range recs {
		if rec.Key == "" {
			return fmt.Errorf("corpus: append: record with empty key")
		}
		sort.Strings(rec.RunIDs)
		e.record(rec)
		if err := e.writeFrame(s.f); err != nil {
			return fmt.Errorf("corpus: append: %w", err)
		}
		s.fold(rec)
	}
	return nil
}

// AppendRun appends a run marker. Append one per run even when no
// races were found — an empty run is what makes a defect *resolved*
// in a later Diff.
func (s *Store) AppendRun(info RunInfo) error {
	if info.ID == "" {
		return fmt.Errorf("corpus: append run: empty run id")
	}
	var e recEncoder
	e.run(info)
	if err := e.writeFrame(s.f); err != nil {
		return fmt.Errorf("corpus: append run: %w", err)
	}
	s.foldRun(info)
	return nil
}

// Sync fsyncs the log: appends made so far survive power loss, not
// just a process crash.
func (s *Store) Sync() error {
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("corpus: sync: %w", err)
	}
	return nil
}

// copyRecord returns a Record whose slices do not alias store state.
// Appends keep folding into the store's internal RunIDs backing
// arrays, so handing those slices out would let a reader observe — or
// race with — a concurrent fold. Every read accessor copies.
func copyRecord(rec *Record) Record {
	out := *rec
	out.RunIDs = append([]string(nil), rec.RunIDs...)
	if rec.Labels != nil {
		out.Labels = append([]taxonomy.Category(nil), rec.Labels...)
	}
	return out
}

// Records returns the folded defect records, sorted by key. The
// returned records own their slices: mutating them — or appending to
// the store afterwards — cannot corrupt (or race with) the caller's
// view.
func (s *Store) Records() []Record {
	keys := make([]string, 0, len(s.byKey))
	for k := range s.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Record, len(keys))
	for i, k := range keys {
		out[i] = copyRecord(s.byKey[k])
	}
	return out
}

// Get returns the folded record for key. Like Records, the result is
// a defensive copy that never aliases store state.
func (s *Store) Get(key string) (Record, bool) {
	rec, ok := s.byKey[key]
	if !ok {
		return Record{}, false
	}
	return copyRecord(rec), true
}

// Generation returns the store's fold generation: the count of frames
// applied so far (records and run markers, including those replayed
// from disk by Open). It grows on every append, so equal generations
// of one store imply identical folded state — the cache key
// internal/service uses.
func (s *Store) Generation() uint64 { return s.gen }

// Len returns the number of deduplicated defects in the store.
func (s *Store) Len() int { return len(s.byKey) }

// Path returns the file path the store was opened at.
func (s *Store) Path() string { return s.path }

// Runs returns the run history in first-append order.
func (s *Store) Runs() []RunInfo {
	out := make([]RunInfo, len(s.runOrder))
	for i, id := range s.runOrder {
		out[i] = *s.runs[id]
	}
	return out
}

// LastRun returns the most recently appended run id, or "" for an
// empty history.
func (s *Store) LastRun() string {
	if len(s.runOrder) == 0 {
		return ""
	}
	return s.runOrder[len(s.runOrder)-1]
}

// Diff computes the cross-run delta between two recorded runs: which
// defects are new in runB, resolved since runA, and recurring in
// both. Both ids must name appended runs.
func (s *Store) Diff(runA, runB string) (Delta, error) {
	known := func(id string) bool { _, ok := s.runs[id]; return ok }
	return diff(runA, runB, len(s.runs), known, s.Records())
}

// diff is Store.Diff and View.Diff: it checks both run ids against
// known (nRuns recorded runs) and sorts recs into the delta.
func diff(runA, runB string, nRuns int, known func(string) bool, recs []Record) (Delta, error) {
	delta := Delta{RunA: runA, RunB: runB}
	for _, id := range []string{runA, runB} {
		if !known(id) {
			return delta, fmt.Errorf("corpus: unknown run id %q (have %d runs)", id, nRuns)
		}
	}
	for _, rec := range recs {
		inA, inB := rec.SeenIn(runA), rec.SeenIn(runB)
		switch {
		case inA && inB:
			delta.Recurring = append(delta.Recurring, rec)
		case inB:
			delta.New = append(delta.New, rec)
		case inA:
			delta.Resolved = append(delta.Resolved, rec)
		}
	}
	return delta, nil
}

// Compact atomically rewrites the log in folded form — one frame per
// run marker and per defect — via a temp file renamed over the
// original. The open handle moves to the compacted file.
func (s *Store) Compact() error {
	tmp := s.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("corpus: compact: %w", err)
	}
	defer os.Remove(tmp) // no-op after a successful rename
	if err := s.writeFolded(f); err != nil {
		f.Close()
		return fmt.Errorf("corpus: compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("corpus: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("corpus: compact: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return fmt.Errorf("corpus: compact: %w", err)
	}
	// Reopen the append handle on the compacted file.
	old := s.f
	nf, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("corpus: compact: reopen: %w", err)
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		return fmt.Errorf("corpus: compact: seek: %w", err)
	}
	old.Close()
	s.f = nf
	return nil
}

// writeFolded writes the folded state as a complete store log: the
// header, then one frame per run marker and one per defect.
func (s *Store) writeFolded(w io.Writer) error {
	var e recEncoder
	e.Header(storeMagic, storeVersion)
	if _, err := w.Write(e.Bytes()); err != nil {
		return err
	}
	for _, id := range s.runOrder {
		e.run(*s.runs[id])
		if err := e.writeFrame(w); err != nil {
			return err
		}
	}
	for _, rec := range s.Records() {
		e.record(rec)
		if err := e.writeFrame(w); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the append handle. The store must not be used after.
func (s *Store) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// TraceFileName returns the canonical file name for a defect's saved
// trace inside a trace directory: the key with path separators and
// unusual characters flattened.
func TraceFileName(key string) string {
	out := make([]byte, 0, len(key)+6)
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out) + ".trace"
}

// TracePathIn joins dir and the canonical trace file name for key.
func TracePathIn(dir, key string) string {
	return filepath.Join(dir, TraceFileName(key))
}
