package study

import (
	"strings"
	"testing"

	"gorace/internal/taxonomy"
)

func TestTable23RegeneratesPaperCounts(t *testing.T) {
	// Full-scale regeneration: every category's simulated count must
	// land near its paper count. Classification noise moves a few
	// instances between related rows, so allow ±20% plus slack of 4
	// for the small rows.
	r := RunTable23(1.0, 1)
	check := func(rows []Row) {
		t.Helper()
		for _, row := range rows {
			want := row.Entry.PaperCount
			slack := want/5 + 4
			if row.Simulated < want-slack || row.Simulated > want+slack {
				t.Errorf("%s: simulated %d, paper %d (±%d)",
					row.Entry.Description, row.Simulated, want, slack)
			}
		}
	}
	check(r.Table2)
	check(r.Table3)

	if r.Accuracy < 0.9 {
		t.Errorf("classifier accuracy %.2f, want ≥ 0.9", r.Accuracy)
	}
	// Observation 3 parent row: 121 capture races in the paper.
	if r.CaptureTotal < 100 || r.CaptureTotal > 145 {
		t.Errorf("capture total = %d, paper reports 121", r.CaptureTotal)
	}
	if r.Population < 1500 {
		// Σ of all table rows (2 and 3) at scale 1.
		t.Errorf("population = %d", r.Population)
	}
	if r.Manifested < r.Population*95/100 {
		t.Errorf("only %d/%d instances manifested", r.Manifested, r.Population)
	}
}

func TestScaleControlsPopulation(t *testing.T) {
	small := RunTable23(0.1, 1)
	full := RunTable23(1.0, 1)
	if small.Population >= full.Population {
		t.Fatalf("scale had no effect: %d vs %d", small.Population, full.Population)
	}
	if got := RunTable23(0, 1); got.Population == 0 {
		t.Fatal("zero scale should default to full scale")
	}
}

func TestFixStrategyRowsCountedFromMetadata(t *testing.T) {
	r := RunTable23(1.0, 2)
	byCat := make(map[taxonomy.Category]int)
	for _, row := range r.Table3 {
		byCat[row.Entry.Cat] = row.Simulated
	}
	if byCat[taxonomy.CatFixRemovedConc] == 0 ||
		byCat[taxonomy.CatFixDisabledTest] == 0 ||
		byCat[taxonomy.CatFixRefactor] == 0 {
		t.Fatalf("fix-strategy rows empty: %v", byCat)
	}
}

func TestFormatRendersBothTables(t *testing.T) {
	r := RunTable23(0.05, 3)
	s := r.Format(0.05)
	for _, want := range []string{"Table 2", "Table 3", "Concurrent slice access",
		"Missing or partial locking", "classifier-accuracy"} {
		if !strings.Contains(s, want) {
			t.Errorf("format missing %q", want)
		}
	}
}

func TestMultiLabelStudy(t *testing.T) {
	m := RunMultiLabel(3)
	if m.Instances < 20 {
		t.Fatalf("only %d instances classified", m.Instances)
	}
	if m.MultiLabel == 0 {
		t.Fatal("no multi-labeled instance — the paper's §4.10 remark should reproduce")
	}
	if m.AvgLabels < 1 {
		t.Fatalf("avg labels %.2f < 1", m.AvgLabels)
	}
	if m.SecondaryN > 0 && m.SecondaryOK == 0 {
		t.Fatal("no declared secondary label ever recovered")
	}
	if !strings.Contains(m.Format(), "multi-label") {
		t.Fatal("format broken")
	}
}
