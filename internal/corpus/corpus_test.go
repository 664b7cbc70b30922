package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"gorace/internal/core"
	"gorace/internal/progen"
	"gorace/internal/report"
	"gorace/internal/stack"
	"gorace/internal/sweep"
	"gorace/internal/taxonomy"
	"gorace/internal/trace"
)

// sampleRecord builds a fully populated record for codec round-trips.
func sampleRecord(key string) Record {
	first := report.Access{
		G: 1, GName: "worker-1", Op: trace.OpWrite, Addr: 42, Seq: 7,
		Stack: stack.NewContext(
			stack.Frame{Func: "main", File: "main.go", Line: 10},
			stack.Frame{Func: "main.func1", File: "main.go", Line: 12},
		),
		Label: "counter", Atomic: false, Locks: []string{"mu", "rw(r)"},
	}
	second := report.Access{
		G: 2, GName: "worker-2", Op: trace.OpRead, Addr: 42, Seq: 9,
		Stack: stack.NewContext(
			stack.Frame{Func: "main", File: "main.go", Line: 10},
			stack.Frame{Func: "main.func2", File: "main.go", Line: 18},
		),
		Label: "counter", Atomic: true,
	}
	return Record{
		Key:       key,
		Unit:      "svc-001/TestFoo",
		RunIDs:    []string{"2026-07-01", "2026-07-02"},
		Count:     5,
		Category:  taxonomy.CatMissingLock,
		Labels:    []taxonomy.Category{taxonomy.CatMissingLock, taxonomy.CatGlobalVar},
		Detector:  "fasttrack",
		TracePath: "traces/" + TraceFileName(key),
		Race: report.Race{
			First: first, Second: second,
			Detector: "fasttrack", Seq: 9,
		},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{sampleRecord("u/aaaa"), sampleRecord("u/bbbb")}
	want[1].TracePath = ""
	want[1].Labels = nil
	want[1].Category = ""
	if err := s.AppendRun(RunInfo{ID: "2026-07-01", Label: "nightly", Executions: 80, Reports: 12}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(want...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Records()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records differ after reopen:\n got %+v\nwant %+v", got, want)
	}
	runs := re.Runs()
	if len(runs) != 1 || runs[0] != (RunInfo{ID: "2026-07-01", Label: "nightly", Executions: 80, Reports: 12}) {
		t.Fatalf("runs differ after reopen: %+v", runs)
	}
	// The dedup hash must survive serialization: corpus keys stay
	// valid only if the decoded race hashes identically.
	if got[0].Race.Hash() != want[0].Race.Hash() {
		t.Fatalf("race hash changed across store round trip")
	}
}

func TestAppendFoldsAcrossRuns(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "c.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := sampleRecord("u/cccc")
	rec.RunIDs = []string{"r1"}
	rec.Count = 2
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
	rec2 := rec
	rec2.RunIDs = []string{"r2"}
	rec2.Count = 3
	if err := s.Append(rec2); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("u/cccc")
	if !ok {
		t.Fatal("folded record missing")
	}
	if got.Count != 5 {
		t.Fatalf("count = %d, want 5", got.Count)
	}
	if !reflect.DeepEqual(got.RunIDs, []string{"r1", "r2"}) {
		t.Fatalf("run ids = %v", got.RunIDs)
	}
	if got.FirstSeen() != "r1" || got.LastSeen() != "r2" {
		t.Fatalf("first/last seen = %q/%q", got.FirstSeen(), got.LastSeen())
	}
}

func TestAppendRejectsEmptyKey(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "c.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(Record{}); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.AppendRun(RunInfo{}); err == nil {
		t.Fatal("empty run id accepted")
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-store")
	if err := os.WriteFile(path, []byte(`{"json": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("foreign file opened as store")
	}
}

// TestCrashMidAppendLosesAtMostInFlightRecord simulates a crash by
// truncating the log inside the final frame: reopening must recover
// every earlier record and leave the store appendable.
func TestCrashMidAppendLosesAtMostInFlightRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(sampleRecord(fmt.Sprintf("u/rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear bytes off the tail, landing inside the last frame.
	for _, cut := range []int64{1, 5, 40} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			torn := filepath.Join(t.TempDir(), "torn.db")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(torn, data[:info.Size()-cut], 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := Open(torn)
			if err != nil {
				t.Fatalf("reopen after torn tail: %v", err)
			}
			defer re.Close()
			if re.Len() != 2 {
				t.Fatalf("recovered %d records, want 2 (lost only the in-flight one)", re.Len())
			}
			// The truncated store must accept appends again.
			if err := re.Append(sampleRecord("u/after-crash")); err != nil {
				t.Fatal(err)
			}
			re2, err := Open(torn)
			if err == nil {
				defer re2.Close()
			}
			if err != nil || re2.Len() != 3 {
				t.Fatalf("store not healthy after recovery append: len=%d err=%v", re2.Len(), err)
			}
		})
	}
}

// TestMidFileCorruptionFailsOpen pins the flip side of torn-tail
// recovery: a corrupted frame with intact frames *after* it is not a
// tear, and Open must fail loudly instead of silently truncating the
// rest of the log away.
func TestMidFileCorruptionFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(sampleRecord(fmt.Sprintf("u/rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte roughly in the middle of the log (inside the
	// second record's frame, well before the final frame).
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("mid-file corruption opened without error")
	}
	// And the failed open must not have mutated the file.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data) {
		t.Fatalf("failed open changed file size: %d -> %d", len(data), len(after))
	}
}

func TestCompactPreservesStateAndShrinks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Many per-run appends of the same defects: the log holds one
	// frame per (defect, run); compaction folds them.
	for run := 0; run < 10; run++ {
		runID := fmt.Sprintf("r%02d", run)
		if err := s.AppendRun(RunInfo{ID: runID, Executions: 4}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			rec := sampleRecord(fmt.Sprintf("u/rec%d", i))
			rec.RunIDs = []string{runID}
			rec.Count = 1
			if err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	before, _ := os.Stat(path)
	want := s.Records()
	wantRuns := s.Runs()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink: %d -> %d bytes", before.Size(), after.Size())
	}
	if !reflect.DeepEqual(s.Records(), want) {
		t.Fatal("in-memory records changed across Compact")
	}
	// The compacted file must round-trip identically, and stay
	// appendable through the moved handle.
	if err := s.Append(sampleRecord("u/post-compact")); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(want)+1 {
		t.Fatalf("reopened len = %d, want %d", re.Len(), len(want)+1)
	}
	if !reflect.DeepEqual(re.Runs(), wantRuns) {
		t.Fatalf("runs differ after compact: %+v vs %+v", re.Runs(), wantRuns)
	}
	for _, w := range want {
		g, ok := re.Get(w.Key)
		if !ok || !reflect.DeepEqual(g, w) {
			t.Fatalf("record %s differs after compact+reopen:\n got %+v\nwant %+v", w.Key, g, w)
		}
	}
}

func TestMergeDisjointStores(t *testing.T) {
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

	shared := sampleRecord("u/shared")
	shared.RunIDs = []string{"a1"}
	shared.Count = 2
	onlyA := sampleRecord("u/only-a")
	onlyA.RunIDs = []string{"a1"}
	if err := a.AppendRun(RunInfo{ID: "a1", Executions: 10}); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(shared, onlyA); err != nil {
		t.Fatal(err)
	}

	sharedB := sampleRecord("u/shared")
	sharedB.RunIDs = []string{"b1"}
	sharedB.Count = 3
	onlyB := sampleRecord("u/only-b")
	onlyB.RunIDs = []string{"b1"}
	if err := b.AppendRun(RunInfo{ID: "b1", Executions: 20}); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(sharedB, onlyB); err != nil {
		t.Fatal(err)
	}

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 3 {
		t.Fatalf("merged len = %d, want 3", a.Len())
	}
	got, _ := a.Get("u/shared")
	if got.Count != 5 || !reflect.DeepEqual(got.RunIDs, []string{"a1", "b1"}) {
		t.Fatalf("merged shared record wrong: %+v", got)
	}
	if len(a.Runs()) != 2 {
		t.Fatalf("merged runs = %+v", a.Runs())
	}
	// The merge is durable: reopening sees the same fold.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(filepath.Join(dir, "a.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reShared, _ := re.Get("u/shared")
	if re.Len() != 3 || reShared.Count != 5 {
		t.Fatalf("merge not durable: len=%d shared=%+v", re.Len(), reShared)
	}
}

// nightlyUnits builds one sweep unit per progen program in [lo, hi):
// a fixed per-unit seed range makes the same unit produce the same
// detections in every "night" that includes it.
func nightlyUnits(lo, hi int) []sweep.Unit {
	var units []sweep.Unit
	for i := lo; i < hi; i++ {
		prog := progen.Generate(int64(i), progen.Params{LockedRatio: progen.Int(20)})
		units = append(units, sweep.Unit{
			ID:       fmt.Sprintf("prog-%02d", i),
			Program:  prog.Main(),
			BaseSeed: int64(i) * 997,
			Runs:     4,
			MaxSteps: 1 << 16,
			Record:   true,
		})
	}
	return units
}

// runNight executes one simulated nightly campaign into the store.
func runNight(t *testing.T, store *Store, runID string, units []sweep.Unit, parallelism int) *Collector {
	t.Helper()
	aggs, _, err := sweep.New(sweep.WithParallelism(parallelism)).Run(units,
		func() sweep.Aggregator { return NewCollector(runID) })
	if err != nil {
		t.Fatal(err)
	}
	coll := aggs[0].(*Collector)
	if err := coll.AppendTo(store); err != nil {
		t.Fatal(err)
	}
	return coll
}

func keysOf(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Key
	}
	return out
}

// TestAppendDiffTwoNights is the acceptance scenario: two simulated
// nightly runs over progen programs — overlapping on some units,
// disjoint on others — must classify every defect correctly into
// new/resolved/recurring, identically at any parallelism, and survive
// a crash mid-append.
func TestAppendDiffTwoNights(t *testing.T) {
	// Night 1 runs programs [0, 10); night 2 runs [4, 14). Unit seed
	// ranges are fixed per unit, so overlap units re-detect the same
	// defects: their races are recurring, [0,4)'s are resolved, and
	// [10,14)'s are new.
	for _, parallelism := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallel%d", parallelism), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "nightly.db")
			store, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()

			c1 := runNight(t, store, "night-1", nightlyUnits(0, 10), parallelism)
			c2 := runNight(t, store, "night-2", nightlyUnits(4, 14), parallelism)
			if c1.Defects() == 0 || c2.Defects() == 0 {
				t.Fatalf("progen nights found no defects (%d, %d); scenario is vacuous",
					c1.Defects(), c2.Defects())
			}

			delta, err := store.Diff("night-1", "night-2")
			if err != nil {
				t.Fatal(err)
			}
			if len(delta.New) == 0 || len(delta.Resolved) == 0 || len(delta.Recurring) == 0 {
				t.Fatalf("degenerate delta: %d new, %d resolved, %d recurring",
					len(delta.New), len(delta.Resolved), len(delta.Recurring))
			}
			// Every defect of an overlap unit must recur (identical unit
			// + seed range => identical detections), and the three sets
			// must partition the store by unit range.
			for _, rec := range delta.Recurring {
				var n int
				fmt.Sscanf(rec.Unit, "prog-%02d", &n)
				if n < 4 || n >= 10 {
					t.Errorf("recurring defect from non-overlap unit %s", rec.Unit)
				}
			}
			for _, rec := range delta.Resolved {
				var n int
				fmt.Sscanf(rec.Unit, "prog-%02d", &n)
				if n >= 4 {
					t.Errorf("resolved defect from unit %s, want only [0,4)", rec.Unit)
				}
			}
			for _, rec := range delta.New {
				var n int
				fmt.Sscanf(rec.Unit, "prog-%02d", &n)
				if n < 10 {
					t.Errorf("new defect from unit %s, want only [10,14)", rec.Unit)
				}
			}
			if got := len(delta.New) + len(delta.Resolved) + len(delta.Recurring); got != store.Len() {
				t.Fatalf("delta covers %d records, store has %d", got, store.Len())
			}

			// Recurring defects accumulated both runs' history.
			rec := delta.Recurring[0]
			if !rec.SeenIn("night-1") || !rec.SeenIn("night-2") {
				t.Fatalf("recurring record missing run ids: %v", rec.RunIDs)
			}

			// Determinism across parallelism: pin against a serial
			// rerun into a fresh store.
			ref, err := Open(filepath.Join(t.TempDir(), "ref.db"))
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			runNight(t, ref, "night-1", nightlyUnits(0, 10), 1)
			runNight(t, ref, "night-2", nightlyUnits(4, 14), 1)
			if !reflect.DeepEqual(store.Records(), ref.Records()) {
				t.Fatalf("corpus differs from serial reference at parallelism %d", parallelism)
			}

			// Crash tolerance: tear the tail and reopen; at most the
			// in-flight (last) record is gone, everything else intact.
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
				t.Fatal(err)
			}
			crashed, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer crashed.Close()
			want := keysOf(ref.Records())
			got := keysOf(crashed.Records())
			if len(got) < len(want)-1 {
				t.Fatalf("crash lost %d records, want at most 1", len(want)-len(got))
			}
			missing := 0
			for i, j := 0, 0; i < len(want); i++ {
				if j < len(got) && got[j] == want[i] {
					j++
				} else {
					missing++
				}
			}
			if missing > 1 {
				t.Fatalf("crash dropped %d records (non-tail loss)", missing)
			}
		})
	}
}

func TestDiffUnknownRun(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "c.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Diff("nope", "nah"); err == nil {
		t.Fatal("diff of unknown runs succeeded")
	}
}

func TestTraceFileName(t *testing.T) {
	got := TraceFileName("svc-001/TestFoo/ab12cd34")
	if got != "svc-001_TestFoo_ab12cd34.trace" {
		t.Fatalf("TraceFileName = %q", got)
	}
}

// TestCollectorObserveCostIndependentOfUnitIdx: a fresh collector
// observing one racy run at unit index 1<<20 allocates no more than at
// index 0. The engine builds one collector per shard, so state that
// grew with the index would cost every late shard a campaign-sized
// allocation.
func TestCollectorObserveCostIndependentOfUnitIdx(t *testing.T) {
	u := nightlyUnits(0, 6)
	runner := core.NewRunner(core.WithMaxSteps(1<<16), core.WithRecord(true))
	var r sweep.Run
	for i := range u {
		out, err := runner.RunSeed(u[i].Program, u[i].BaseSeed)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Races) > 0 {
			r = sweep.Run{Unit: &u[i], Seed: u[i].BaseSeed, Outcome: out}
			break
		}
	}
	if r.Outcome == nil {
		t.Fatal("no unit raced")
	}
	cost := func(unitIdx int) (mallocs, bytes uint64) {
		const n = 20
		r.UnitIdx = unitIdx
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			NewCollector("night-1").Observe(r)
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
	}
	cost(0) // warm any lazily built package state
	em, eb := cost(0)
	lm, lb := cost(1 << 20)
	if lm > em || lb > eb+64 {
		t.Errorf("observe at unit 0: %d mallocs, %d B; at unit 1<<20: %d mallocs, %d B", em, eb, lm, lb)
	}
}

// TestFirstCategories: the campaign tally counts the primary label of
// each unit's first record only, and an unlabelled first record counts
// nothing for its unit.
func TestFirstCategories(t *testing.T) {
	recs := []Record{
		{Unit: "a/random", Category: "map"},
		{Unit: "a/random", Category: "slice"},
		{Unit: "a/pct", Category: "map"},
		{Unit: "b/random"},
		{Unit: "b/random", Category: "slice"},
		{Unit: "c/random", Category: "slice"},
	}
	want := map[taxonomy.Category]int{"map": 2, "slice": 1}
	if got := FirstCategories(recs); !reflect.DeepEqual(got, want) {
		t.Fatalf("FirstCategories = %v, want %v", got, want)
	}
}
