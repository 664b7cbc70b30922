package corpus

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestRecordsAreDefensiveCopies pins the aliasing fix: records handed
// out by Records/Get own their slices, so neither mutating them nor
// appending to the store afterwards can corrupt a reader's view.
func TestRecordsAreDefensiveCopies(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "corpus.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := sampleRecord("u/aaaa")
	rec.RunIDs = []string{"run-001"}
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}

	got := s.Records()[0]
	got.RunIDs[0] = "mutated"
	got.Labels[0] = "mutated"
	fresh, _ := s.Get("u/aaaa")
	if fresh.RunIDs[0] != "run-001" || string(fresh.Labels[0]) == "mutated" {
		t.Fatalf("mutating a returned record reached store state: %+v", fresh)
	}

	// A later append folds more run ids into the same key; a copy
	// taken before must not change underneath the caller.
	before, _ := s.Get("u/aaaa")
	rec2 := sampleRecord("u/aaaa")
	rec2.RunIDs = []string{"run-000"} // sorts before run-001: folds at index 0
	if err := s.Append(rec2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.RunIDs, []string{"run-001"}) {
		t.Fatalf("concurrent fold visible through earlier copy: %v", before.RunIDs)
	}
}

// TestSnapshotReadersNeverObserveAppends is the -race pin for the
// copy-on-write contract: readers iterating a snapshot (and records
// copied out before) race with nothing while the single writer keeps
// appending to the live store.
func TestSnapshotReadersNeverObserveAppends(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "corpus.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := sampleRecord("u/aaaa")
	rec.RunIDs = []string{"run-001"}
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRun(RunInfo{ID: "run-001", Executions: 1, Reports: 1}); err != nil {
		t.Fatal(err)
	}

	snap := s.Snapshot()
	recs := s.Records()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, r := range snap.Records() {
					_ = r.FirstSeen()
					_ = r.SeenIn("run-001")
				}
				if _, ok := snap.Get("u/aaaa"); !ok {
					t.Error("snapshot lost a record")
					return
				}
				for _, r := range recs {
					_ = r.LastSeen()
				}
			}
		}()
	}
	// The single writer appends concurrently with the readers above —
	// under -race, any aliasing between reader copies and the store's
	// fold state shows up here.
	for i := 0; i < 200; i++ {
		more := sampleRecord("u/aaaa")
		more.RunIDs = []string{"run-002"}
		if err := s.Append(more); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	if got := snap.Len(); got != 1 {
		t.Fatalf("snapshot Len = %d, want 1", got)
	}
	if r, _ := snap.Get("u/aaaa"); !reflect.DeepEqual(r.RunIDs, []string{"run-001"}) {
		t.Fatalf("snapshot changed under appends: %v", r.RunIDs)
	}
}

func TestSnapshotGenerationAndDiff(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "corpus.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a := sampleRecord("u/aaaa")
	a.RunIDs = []string{"run-001"}
	b := sampleRecord("u/bbbb")
	b.RunIDs = []string{"run-001", "run-002"}
	c := sampleRecord("u/cccc")
	c.RunIDs = []string{"run-002"}
	for _, run := range []string{"run-001", "run-002"} {
		if err := s.AppendRun(RunInfo{ID: run}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(a, b, c); err != nil {
		t.Fatal(err)
	}

	v1 := s.Snapshot()
	if v1.Generation() != s.Generation() {
		t.Fatalf("snapshot generation %d != store generation %d", v1.Generation(), s.Generation())
	}
	delta, err := v1.Diff("run-001", "run-002")
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.New) != 1 || len(delta.Resolved) != 1 || len(delta.Recurring) != 1 {
		t.Fatalf("diff = %d new %d resolved %d recurring, want 1/1/1",
			len(delta.New), len(delta.Resolved), len(delta.Recurring))
	}
	if _, err := v1.Diff("run-001", "run-404"); err == nil {
		t.Fatal("diff against unknown run succeeded")
	}

	// Appends advance the generation; the old view keeps its own.
	if err := s.AppendRun(RunInfo{ID: "run-003"}); err != nil {
		t.Fatal(err)
	}
	v2 := s.Snapshot()
	if v2.Generation() <= v1.Generation() {
		t.Fatalf("generation did not advance: %d then %d", v1.Generation(), v2.Generation())
	}
	if v1.HasRun("run-003") || !v2.HasRun("run-003") {
		t.Fatalf("run visibility wrong: v1=%v v2=%v", v1.HasRun("run-003"), v2.HasRun("run-003"))
	}
	if r1, r2 := v1.Runs(), v2.Runs(); r1[len(r1)-1].ID != "run-002" || r2[len(r2)-1].ID != "run-003" {
		t.Fatalf("last run: v1=%q v2=%q", r1[len(r1)-1].ID, r2[len(r2)-1].ID)
	}

	// Generation survives a close/reopen: load replays the same frames.
	gen := s.Generation()
	path := s.Path()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Generation() != gen {
		t.Fatalf("generation after reopen %d, want %d", re.Generation(), gen)
	}
}

func TestViewTop(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "corpus.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, key := range []string{"u/aaaa", "u/bbbb", "u/cccc"} {
		rec := sampleRecord(key)
		rec.RunIDs = []string{"run-001"}
		rec.Count = uint64(10 - i) // aaaa most frequent
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	v := s.Snapshot()
	top := v.Top(2)
	if len(top) != 2 || top[0].Key != "u/aaaa" || top[1].Key != "u/bbbb" {
		t.Fatalf("Top(2) = %v", keysOf(top))
	}
	if v.Records()[0].Key != "u/aaaa" {
		t.Fatal("Top disturbed the snapshot's sorted order")
	}
}
