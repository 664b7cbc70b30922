package corpus

import (
	"fmt"
	"io"
	"sort"
)

// Delta export/import: the framing that lets corpus state travel
// between nodes. An Export is a self-contained bundle of run markers
// plus records — a whole store's folded state (snapshot replication to
// read replicas) or one run's worth of new records (a worker shipping
// a shard's defects to the coordinator). The wire form reuses the
// store's CRC-framed binary record codec, so a record round-trips the
// network with exactly the fidelity it round-trips disk: dedup keys,
// stacks, and race hashes come back bit-identical, which is what makes
// a distributed campaign's folded corpus byte-identical to a
// single-node run.
//
// Layout ("GRCD" magic, then the store codec's frames):
//
//	"GRCD" magic | uvarint version | uvarint #runs | uvarint #records | frames...
//
// with each frame exactly as in the store log (see codec.go): run
// markers first, then records, both in the order WriteDelta was given.
// The counts in the header make truncation detectable even at frame
// boundaries: a delta decodes whole or not at all.

// deltaMagic identifies a corpus delta stream.
var deltaMagic = [4]byte{'G', 'R', 'C', 'D'}

// deltaVersion is written after the magic; readers reject versions
// they do not know.
const deltaVersion = 1

// Export is a transportable bundle of corpus state: the unit of
// corpus federation. Build one from a store or view, frame it with
// WriteDelta, ship it, and fold it into another store with
// Store.ApplyDelta (or into a read replica with ViewFromExport).
type Export struct {
	// Runs lists run markers in first-append order.
	Runs []RunInfo
	// Records lists defect records; ApplyDelta folds them in order.
	Records []Record
}

// Export renders the view's folded state as a transportable bundle.
func (v *View) Export() Export {
	return Export{Runs: v.Runs(), Records: v.Records()}
}

// WriteDelta frames the export onto w in the binary delta format.
func WriteDelta(w io.Writer, x Export) error {
	var e recEncoder
	e.Header(deltaMagic, deltaVersion)
	e.Uvarint(uint64(len(x.Runs)))
	e.Uvarint(uint64(len(x.Records)))
	if _, err := w.Write(e.Bytes()); err != nil {
		return fmt.Errorf("corpus: write delta header: %w", err)
	}
	for _, info := range x.Runs {
		e.run(info)
		if err := e.writeFrame(w); err != nil {
			return fmt.Errorf("corpus: write delta run %q: %w", info.ID, err)
		}
	}
	for _, rec := range x.Records {
		e.record(rec)
		if err := e.writeFrame(w); err != nil {
			return fmt.Errorf("corpus: write delta record %q: %w", rec.Key, err)
		}
	}
	return nil
}

// ReadDelta decodes a binary delta stream produced by WriteDelta.
// Unlike a store log, a delta has no torn-tail tolerance: it travels
// whole or not at all, so any framing error fails the read.
func ReadDelta(r io.Reader) (Export, error) {
	var x Export
	data, err := io.ReadAll(r)
	if err != nil {
		return x, fmt.Errorf("corpus: read delta: %w", err)
	}
	var fd frameDecoder
	fd.header(data, deltaMagic, deltaVersion)
	nRuns, nRecords := fd.d.Uvarint(), fd.d.Uvarint()
	if err := fd.d.Err(); err != nil {
		return x, fmt.Errorf("corpus: delta header: %w", err)
	}
	off := len(data) - fd.r.Len()
	for off < len(data) {
		payload, next, err := nextFrame(data, off)
		if err != nil {
			return x, fmt.Errorf("corpus: delta frame at offset %d: %w", off, err)
		}
		if err := fd.decodePayload(payload, &x); err != nil {
			return x, fmt.Errorf("corpus: delta frame at offset %d: %w", off, err)
		}
		off = next
	}
	if uint64(len(x.Runs)) != nRuns || uint64(len(x.Records)) != nRecords {
		return x, fmt.Errorf("corpus: truncated delta: got %d runs + %d records, header promised %d + %d",
			len(x.Runs), len(x.Records), nRuns, nRecords)
	}
	return x, nil
}

func (x *Export) fold(rec Record)      { x.Records = append(x.Records, rec) }
func (x *Export) foldRun(info RunInfo) { x.Runs = append(x.Runs, info) }

// ApplyDelta folds an export into the store, syncing at the end of
// the batch. It is idempotent and order-independent at *run*
// granularity: run markers already in the history are skipped, and so
// is any record whose run ids are all recorded, so applying a delta
// twice, or two deltas in either order, yields identical folded state.
// A record spanning several runs of which only some are new folds
// whole and over-counts; per-run deltas (Collector, shard answers)
// never hit that case.
func (s *Store) ApplyDelta(x Export) error {
	seen := make(map[string]bool, len(s.runs))
	for id := range s.runs {
		seen[id] = true
	}
	appended := false
	applied := make(map[string]bool)
	for _, info := range x.Runs {
		if seen[info.ID] || applied[info.ID] {
			continue
		}
		if err := s.AppendRun(info); err != nil {
			return err
		}
		applied[info.ID] = true
		appended = true
	}
	for _, rec := range x.Records {
		if allRunsIn(rec.RunIDs, seen) {
			continue
		}
		if err := s.Append(rec); err != nil {
			return err
		}
		appended = true
	}
	if !appended {
		return nil
	}
	return s.Sync()
}

// allRunsIn reports whether every id (of a non-empty list) is in the
// set; records with no run ids fold unconditionally.
func allRunsIn(ids []string, set map[string]bool) bool {
	if len(ids) == 0 {
		return false
	}
	for _, id := range ids {
		if !set[id] {
			return false
		}
	}
	return true
}

// ViewFromExport builds an immutable read View directly from a
// transported export, with no backing store file — the shape a read
// replica serves from. gen and path stamp the snapshot with the
// *origin* store's generation and path, so responses rendered from a
// replica carry the same generation (and are byte-identical to the
// origin's at that generation, the distributed response-cache
// contract).
func ViewFromExport(gen uint64, path string, x Export) *View {
	v := &View{
		gen:  gen,
		path: path,
		recs: append([]Record(nil), x.Records...),
		key:  make(map[string]int, len(x.Records)),
		runs: append([]RunInfo(nil), x.Runs...),
		run:  make(map[string]bool, len(x.Runs)),
	}
	sort.Slice(v.recs, func(i, j int) bool { return v.recs[i].Key < v.recs[j].Key })
	for i := range v.recs {
		v.key[v.recs[i].Key] = i
	}
	for _, r := range v.runs {
		v.run[r.ID] = true
	}
	return v
}
