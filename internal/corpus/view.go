package corpus

import "sort"

// View is an immutable snapshot of a store's folded state, the unit
// of concurrent read access. A Store is single-writer by design; a
// View taken with Store.Snapshot is safe to share among any number of
// reader goroutines with no locking at all, because nothing in it is
// ever written again — later appends to the store produce *later*
// snapshots and leave existing Views untouched (copy-on-write at
// snapshot granularity).
//
// Views carry the store generation they were taken at. Two Views of
// one store with equal generations hold identical state, which is
// what makes the generation a sound response-cache key: a cached
// rendering of a View can be served until a newer snapshot is
// published. internal/service is built on exactly this contract.
//
// The Records and Runs accessors return the snapshot's internal
// slices to keep thousand-reader fan-out allocation-free; treat them
// as read-only.
type View struct {
	gen  uint64
	path string
	recs []Record // key-sorted, deep-copied from the store
	key  map[string]int
	runs []RunInfo // first-append order
	run  map[string]bool
}

// Snapshot captures the store's current folded state as an immutable
// View. The caller may keep appending to the store afterwards; the
// View never changes. Snapshot deep-copies every record, so its cost
// is proportional to the corpus size — take one per mutation batch
// (per nightly append), not per read.
func (s *Store) Snapshot() *View {
	// Records and Runs return defensive copies: nothing aliases the store.
	return newView(s.gen, s.path, s.Records(), s.Runs())
}

// newView builds a View that owns recs (key-sorted) and runs.
func newView(gen uint64, path string, recs []Record, runs []RunInfo) *View {
	v := &View{
		gen:  gen,
		path: path,
		recs: recs,
		key:  make(map[string]int, len(recs)),
		runs: runs,
		run:  make(map[string]bool, len(runs)),
	}
	for i := range v.recs {
		v.key[v.recs[i].Key] = i
	}
	for _, r := range v.runs {
		v.run[r.ID] = true
	}
	return v
}

// Generation returns the store generation the snapshot was taken at.
func (v *View) Generation() uint64 { return v.gen }

// Path returns the file path of the store the snapshot came from.
func (v *View) Path() string { return v.path }

// Records returns the snapshot's defect records, sorted by key. The
// slice is shared by every caller of this View: read, don't mutate.
func (v *View) Records() []Record { return v.recs }

// Get returns the record for key.
func (v *View) Get(key string) (Record, bool) {
	i, ok := v.key[key]
	if !ok {
		return Record{}, false
	}
	return v.recs[i], true
}

// Len returns the number of deduplicated defects in the snapshot.
func (v *View) Len() int { return len(v.recs) }

// Runs returns the snapshot's run history in first-append order. The
// slice is shared by every caller of this View: read, don't mutate.
func (v *View) Runs() []RunInfo { return v.runs }

// HasRun reports whether the snapshot's history contains the run id.
func (v *View) HasRun(id string) bool { return v.run[id] }

// Diff computes the cross-run delta between two recorded runs, with
// the same semantics as Store.Diff, against the frozen snapshot.
func (v *View) Diff(runA, runB string) (Delta, error) {
	return diff(runA, runB, len(v.runs), func(id string) bool { return v.run[id] }, v.recs)
}

// Top returns the n records with the highest cross-run occurrence
// counts (ties broken by key, so the ranking is deterministic),
// without disturbing the snapshot's key-sorted Records order.
func (v *View) Top(n int) []Record {
	out := append([]Record(nil), v.recs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n >= 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
