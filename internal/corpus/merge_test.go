package corpus

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"gorace/internal/sweep"
	"gorace/internal/taxonomy"
)

// deltaA/deltaB build two per-run deltas with overlapping run history:
// both carry run "r2" (with identical contents, as two exports of the
// same run do), and each carries a private run. Defect keys overlap
// across runs, with different defining metadata per run so the fold's
// earliest-run-wins resolution is actually exercised.
func perRunDelta(runID string, execs int, keys []string, category taxonomy.Category) Export {
	x := Export{Runs: []RunInfo{{ID: runID, Label: "night", Executions: execs, Reports: len(keys)}}}
	for _, key := range keys {
		rec := sampleRecord(key)
		rec.RunIDs = []string{runID}
		rec.Count = uint64(len(key)) // deterministic, varies per key
		rec.Category = category
		rec.Labels = []taxonomy.Category{category}
		rec.Detector = "fasttrack"
		rec.TracePath = ""
		x.Records = append(x.Records, rec)
	}
	return x
}

// foldInto applies the deltas to a fresh store in the given order and
// returns the store's observable state.
func foldInto(t *testing.T, dir string, name string, deltas ...Export) ([]Record, []RunInfo, uint64) {
	t.Helper()
	s, err := Open(filepath.Join(dir, name+".db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, x := range deltas {
		if err := s.ApplyDelta(x); err != nil {
			t.Fatal(err)
		}
	}
	var total uint64
	for _, rec := range s.Records() {
		total += rec.Count
	}
	return s.Records(), s.Runs(), total
}

// runsEqualAsSets compares run histories ignoring append order (the
// one thing merge order is allowed to change).
func runsEqualAsSets(a, b []RunInfo) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]RunInfo, len(a))
	for _, r := range a {
		set[r.ID] = r
	}
	for _, r := range b {
		if set[r.ID] != r {
			return false
		}
	}
	return true
}

// TestMergeOverlappingDeltasIdempotentAndOrderIndependent is the
// corpus.Merge property test: for per-run deltas with overlapping run
// histories, fold(A ∪ B) == fold(B ∪ A) == fold(A ∪ B ∪ B) — records,
// run markers, and occurrence counts all included. This is the
// contract that lets a coordinator re-apply a worker's delta after a
// retransmit, or apply two workers' deltas in arrival order, without
// double counting or divergent defining reports.
func TestMergeOverlappingDeltasIdempotentAndOrderIndependent(t *testing.T) {
	dir := t.TempDir()

	// A covers runs r1+r2, B covers r2+r3; r2 (shared history) is
	// byte-identical in both, as two exports of one run are.
	r2 := perRunDelta("r2", 20, []string{"u/shared", "u/r2-only"}, taxonomy.CatMissingLock)
	deltaA := []Export{
		perRunDelta("r1", 10, []string{"u/shared", "u/a-only"}, taxonomy.CatGlobalVar),
		r2,
	}
	deltaB := []Export{
		r2,
		perRunDelta("r3", 30, []string{"u/shared", "u/b-only", "u/r2-only"}, taxonomy.CatMissingLock),
	}

	ab := append(append([]Export{}, deltaA...), deltaB...)
	ba := append(append([]Export{}, deltaB...), deltaA...)
	abb := append(append([]Export{}, ab...), deltaB...)

	recsAB, runsAB, countAB := foldInto(t, dir, "ab", ab...)
	recsBA, runsBA, countBA := foldInto(t, dir, "ba", ba...)
	recsABB, runsABB, countABB := foldInto(t, dir, "abb", abb...)

	if !reflect.DeepEqual(recsAB, recsBA) {
		t.Errorf("fold A∪B != fold B∪A:\n got %+v\nwant %+v", recsBA, recsAB)
	}
	if !reflect.DeepEqual(recsAB, recsABB) {
		t.Errorf("fold A∪B∪B != fold A∪B (not idempotent):\n got %+v\nwant %+v", recsABB, recsAB)
	}
	if countAB != countBA || countAB != countABB {
		t.Errorf("occurrence totals diverge: AB=%d BA=%d ABB=%d", countAB, countBA, countABB)
	}
	if !runsEqualAsSets(runsAB, runsBA) || !runsEqualAsSets(runsAB, runsABB) {
		t.Errorf("run histories diverge:\nAB  %+v\nBA  %+v\nABB %+v", runsAB, runsBA, runsABB)
	}

	// The shared defect's defining metadata must come from its
	// earliest run (r1, CatGlobalVar) in every fold order, and its
	// count must be the sum over its three distinct runs.
	for name, recs := range map[string][]Record{"AB": recsAB, "BA": recsBA, "ABB": recsABB} {
		var shared *Record
		for i := range recs {
			if recs[i].Key == "u/shared" {
				shared = &recs[i]
			}
		}
		if shared == nil {
			t.Fatalf("%s: u/shared missing", name)
		}
		if shared.Category != taxonomy.CatGlobalVar {
			t.Errorf("%s: shared category = %s, want %s (earliest run wins)", name, shared.Category, taxonomy.CatGlobalVar)
		}
		if want := []string{"r1", "r2", "r3"}; !reflect.DeepEqual(shared.RunIDs, want) {
			t.Errorf("%s: shared runs = %v, want %v", name, shared.RunIDs, want)
		}
		if want := uint64(3 * len("u/shared")); shared.Count != want {
			t.Errorf("%s: shared count = %d, want %d", name, shared.Count, want)
		}
	}

	// Run-marker semantics: the shared run r2 folded once — its
	// executions are not doubled by the second delta carrying it.
	for _, runs := range [][]RunInfo{runsAB, runsBA, runsABB} {
		for _, r := range runs {
			if r.ID == "r2" && r.Executions != 20 {
				t.Errorf("run r2 executions = %d, want 20 (marker folded more than once)", r.Executions)
			}
		}
	}
}

// TestMergeStoresIsRunIdempotent pins the same property at Store.Merge
// granularity: merging a store into another twice equals merging once.
func TestMergeStoresIsRunIdempotent(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(filepath.Join(dir, "a.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(filepath.Join(dir, "b.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.ApplyDelta(perRunDelta("r1", 5, []string{"u/x"}, taxonomy.CatMissingLock)); err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyDelta(perRunDelta("r2", 7, []string{"u/x", "u/y"}, taxonomy.CatGlobalVar)); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	once := a.Records()
	onceRuns := a.Runs()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Records(), once) {
		t.Errorf("second merge changed records:\n got %+v\nwant %+v", a.Records(), once)
	}
	if !reflect.DeepEqual(a.Runs(), onceRuns) {
		t.Errorf("second merge changed runs: %+v vs %+v", a.Runs(), onceRuns)
	}
}

// TestDeltaRoundTrip pins the wire framing: a delta written and read
// back is structurally identical, and a truncated stream fails loudly
// instead of folding partially.
func TestDeltaRoundTrip(t *testing.T) {
	x := perRunDelta("r9", 11, []string{"u/one", "u/two"}, taxonomy.CatMissingLock)
	var buf bytes.Buffer
	if err := WriteDelta(&buf, x); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDelta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, x) {
		t.Fatalf("delta round trip:\n got %+v\nwant %+v", got, x)
	}
	for cut := 1; cut < buf.Len(); cut += 7 {
		if _, err := ReadDelta(bytes.NewReader(buf.Bytes()[:buf.Len()-cut])); err == nil {
			t.Fatalf("truncated delta (%d bytes cut) read without error", cut)
		}
	}
	if _, err := ReadDelta(bytes.NewReader([]byte("GRTBnope"))); err == nil {
		t.Fatal("foreign stream read without error")
	}
}

// TestViewFromExport pins that a replicated view serves the same state
// as the origin: same records (sorted), runs, generation, and diffs.
func TestViewFromExport(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "origin.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, run := range []string{"r1", "r2"} {
		keys := []string{"u/a", fmt.Sprintf("u/only-%s", run)}
		if err := s.ApplyDelta(perRunDelta(run, 10*(i+1), keys, taxonomy.CatMissingLock)); err != nil {
			t.Fatal(err)
		}
	}
	origin := s.Snapshot()
	replica := ViewFromExport(origin.Generation(), origin.Path(), origin.Export())
	if replica.Generation() != origin.Generation() || replica.Path() != origin.Path() {
		t.Fatalf("replica stamp (%d,%q) != origin (%d,%q)",
			replica.Generation(), replica.Path(), origin.Generation(), origin.Path())
	}
	if !reflect.DeepEqual(replica.Records(), origin.Records()) {
		t.Errorf("replica records differ:\n got %+v\nwant %+v", replica.Records(), origin.Records())
	}
	if !reflect.DeepEqual(replica.Runs(), origin.Runs()) {
		t.Errorf("replica runs differ: %+v vs %+v", replica.Runs(), origin.Runs())
	}
	od, err1 := origin.Diff("r1", "r2")
	rd, err2 := replica.Diff("r1", "r2")
	if err1 != nil || err2 != nil || !reflect.DeepEqual(od, rd) {
		t.Errorf("replica diff differs: %+v (%v) vs %+v (%v)", rd, err2, od, err1)
	}
}

// TestCollectorFromRecordsOutOfOrder: shard records that arrive in
// descending unit order rebuild the same collector, and collectors
// merged out of unit order still render in canonical order.
func TestCollectorFromRecordsOutOfOrder(t *testing.T) {
	units := nightlyUnits(0, 6)
	aggs, _, err := sweep.New(sweep.WithParallelism(1)).Run(units,
		func() sweep.Aggregator { return NewCollector("night-1") })
	if err != nil {
		t.Fatal(err)
	}
	orig := aggs[0].(*Collector)
	want := orig.Records()
	unitIdx := make(map[string]int)
	for i, u := range units {
		unitIdx[u.ID] = i
	}
	// Reverse the unit order, keeping each unit's records in
	// first-manifestation order.
	var byUnit [][]Record
	for i, rec := range want {
		if i == 0 || rec.Unit != want[i-1].Unit {
			byUnit = append(byUnit, nil)
		}
		byUnit[len(byUnit)-1] = append(byUnit[len(byUnit)-1], rec)
	}
	if len(byUnit) < 2 {
		t.Fatalf("need defects in two units, got %d", len(byUnit))
	}
	var reversed []Record
	for i := len(byUnit) - 1; i >= 0; i-- {
		reversed = append(reversed, byUnit[i]...)
	}
	rebuilt, err := NewCollectorFromRecords("night-1", orig.Executions(), orig.Reports(), reversed, unitIdx)
	if err != nil {
		t.Fatal(err)
	}
	if got := rebuilt.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt from reversed records:\n got %v\nwant %v", keysOf(got), keysOf(want))
	}

	// Fold the later units first, then the earlier ones.
	half := len(byUnit) / 2
	early, err := NewCollectorFromRecords("night-1", 0, 0, concatRecords(byUnit[:half]), unitIdx)
	if err != nil {
		t.Fatal(err)
	}
	late, err := NewCollectorFromRecords("night-1", 0, 0, concatRecords(byUnit[half:]), unitIdx)
	if err != nil {
		t.Fatal(err)
	}
	root := NewCollector("night-1")
	root.Merge(late)
	root.Merge(early)
	if got := root.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged out of unit order:\n got %v\nwant %v", keysOf(got), keysOf(want))
	}
}

func concatRecords(groups [][]Record) []Record {
	var out []Record
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
