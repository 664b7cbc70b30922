package corpus

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// Delta export/import: the framing that lets corpus state travel
// between nodes. An Export is a self-contained bundle of run markers
// plus records — a whole store's folded state (snapshot replication to
// read replicas, rebuilt with ViewFromExport) or one run's worth of new
// records (a worker shipping a shard's defects to the coordinator,
// which folds them into the campaign's collector). The wire form reuses the
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
// corpus federation. Build one from a view (or a collector's records),
// frame it with WriteDelta, ship it, and rebuild a read replica from
// it with ViewFromExport.
type Export struct {
	// Runs lists run markers in first-append order.
	Runs []RunInfo
	// Records lists defect records in the order they were written.
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
	off := len(data) - fd.d.Buffered()
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

// ViewFromExport builds an immutable read View directly from a
// transported export, with no backing store file — the shape a read
// replica serves from. gen and path stamp the snapshot with the
// *origin* store's generation and path, so responses rendered from a
// replica carry the same generation (and are byte-identical to the
// origin's at that generation, the distributed response-cache
// contract).
func ViewFromExport(gen uint64, path string, x Export) *View {
	recs := slices.Clone(x.Records)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	return newView(gen, path, recs, slices.Clone(x.Runs))
}
