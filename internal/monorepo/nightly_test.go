package monorepo

import (
	"path/filepath"
	"strings"
	"testing"

	"gorace/internal/corpus"
)

func TestRunNightlyAccumulatesAndDiffs(t *testing.T) {
	repo := Generate(6, 3, 0.6, 3)
	store, err := corpus.Open(filepath.Join(t.TempDir(), "nightly.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	n1, err := repo.RunNightly(store, "2026-07-01", 42)
	if err != nil {
		t.Fatal(err)
	}
	if !n1.FirstNight {
		t.Fatal("first night not flagged")
	}
	if n1.Defects == 0 {
		t.Fatal("no defects detected on night 1; scenario is vacuous")
	}
	if len(n1.Delta.New) != n1.Defects || len(n1.Delta.Recurring) != 0 || len(n1.Delta.Resolved) != 0 {
		t.Fatalf("first-night delta inconsistent: %d new, %d recurring, %d resolved (defects %d)",
			len(n1.Delta.New), len(n1.Delta.Recurring), len(n1.Delta.Resolved), n1.Defects)
	}

	// Fix one detected test, then rerun the same schedules: its
	// defects must show as resolved, everything else as recurring.
	first := n1.Delta.New[0]
	svcTest := strings.SplitN(first.Unit, "/", 2)
	if !repo.Fix(svcTest[0], svcTest[1]) {
		t.Fatalf("could not fix %s", first.Unit)
	}
	n2, err := repo.RunNightly(store, "2026-07-02", 42)
	if err != nil {
		t.Fatal(err)
	}
	if n2.FirstNight {
		t.Fatal("second night flagged as first")
	}
	if n2.Delta.RunA != "2026-07-01" || n2.Delta.RunB != "2026-07-02" {
		t.Fatalf("delta runs = %q -> %q", n2.Delta.RunA, n2.Delta.RunB)
	}
	if len(n2.Delta.New) != 0 {
		t.Fatalf("identical schedules produced %d new defects", len(n2.Delta.New))
	}
	if len(n2.Delta.Resolved) == 0 {
		t.Fatal("fixed test produced no resolved defects")
	}
	for _, rec := range n2.Delta.Resolved {
		if rec.Unit != first.Unit {
			t.Fatalf("resolved defect from unfixed unit %s", rec.Unit)
		}
	}
	if len(n2.Delta.Recurring) != n1.Defects-len(n2.Delta.Resolved) {
		t.Fatalf("recurring %d, want %d", len(n2.Delta.Recurring), n1.Defects-len(n2.Delta.Resolved))
	}
	// Recurring defects carry accumulated history.
	rec := n2.Delta.Recurring[0]
	if rec.FirstSeen() != "2026-07-01" || rec.LastSeen() != "2026-07-02" {
		t.Fatalf("recurring history wrong: %v", rec.RunIDs)
	}
	if rec.Category == "" || len(rec.Labels) == 0 {
		t.Fatalf("defect not classified: %+v", rec)
	}

	// The store survives reopening with the full two-night history.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := corpus.Open(store.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	runs := re.Runs()
	if len(runs) != 2 || runs[0].ID != "2026-07-01" || runs[1].ID != "2026-07-02" {
		t.Fatalf("reopened runs = %+v", runs)
	}
	if runs[0].Executions != n1.Executions || runs[0].Reports != n1.Reports {
		t.Fatalf("run 1 accounting lost: %+v vs %+v", runs[0], n1)
	}
	delta, err := re.Diff("2026-07-01", "2026-07-02")
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Resolved) != len(n2.Delta.Resolved) || len(delta.Recurring) != len(n2.Delta.Recurring) {
		t.Fatalf("reopened diff differs: %d/%d resolved, %d/%d recurring",
			len(delta.Resolved), len(n2.Delta.Resolved), len(delta.Recurring), len(n2.Delta.Recurring))
	}
}
