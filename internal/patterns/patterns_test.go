package patterns

import (
	"os"
	"testing"

	"gorace/internal/core"
	"gorace/internal/taxonomy"
)

// runner drives every corpus execution in these tests: default
// (fasttrack) detector, random schedules, bounded steps.
var runner = core.NewRunner(core.WithMaxSteps(1 << 16))

func TestRegistryValid(t *testing.T) {
	if err := Validate(); err != nil {
		t.Fatal(err)
	}
	if len(All()) < 20 {
		t.Fatalf("corpus has only %d patterns", len(All()))
	}
}

func TestEveryTableCategoryCovered(t *testing.T) {
	// Every row of Tables 2 and 3 must have at least one corpus entry
	// (primary category).
	for _, e := range taxonomy.Entries {
		if len(ByCategory(e.Cat)) == 0 {
			t.Errorf("category %q (%s) has no corpus pattern", e.Cat, e.Description)
		}
	}
}

func TestEveryListingCovered(t *testing.T) {
	want := map[int]bool{1: false, 2: false, 3: false, 4: false, 5: false,
		6: false, 7: false, 9: false, 10: false, 11: false}
	for _, p := range All() {
		if _, ok := want[p.Listing]; ok {
			want[p.Listing] = true
		}
	}
	for l, ok := range want {
		if !ok {
			t.Errorf("paper listing %d has no corpus pattern", l)
		}
	}
}

func TestByIDAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != len(All()) {
		t.Fatal("IDs/All length mismatch")
	}
	for _, id := range ids {
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%q) failed", id)
		}
	}
	if _, ok := ByID("no-such-pattern"); ok {
		t.Error("ByID on unknown id succeeded")
	}
}

func TestRacyVariantsManifest(t *testing.T) {
	const maxSeeds = 80
	for _, p := range All() {
		p := p
		t.Run(p.ID+"/racy", func(t *testing.T) {
			for seed := int64(0); seed < maxSeeds; seed++ {
				out, err := runner.RunSeed(p.Racy, seed)
				if err != nil {
					t.Fatal(err)
				}
				if out.Result.BudgetExceeded {
					t.Fatalf("seed %d: budget exceeded", seed)
				}
				if out.HasRace() {
					return // manifested
				}
			}
			t.Fatalf("race never manifested across %d seeds", maxSeeds)
		})
	}
}

func TestFixedVariantsClean(t *testing.T) {
	const seeds = 40
	for _, p := range All() {
		p := p
		t.Run(p.ID+"/fixed", func(t *testing.T) {
			wk, err := runner.NewWorker()
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < seeds; seed++ {
				out, err := wk.RunSeed(p.Fixed, seed)
				if err != nil {
					t.Fatal(err)
				}
				if out.HasRace() {
					t.Fatalf("seed %d: fixed variant raced:\n%s", out.Seed, out.Races[0])
				}
				if out.Result.Deadlocked() {
					t.Fatalf("seed %d: fixed variant leaked goroutines: %+v", out.Seed, out.Result.Leaked)
				}
				if len(out.Result.Failures) > 0 {
					t.Fatalf("seed %d: fixed variant failed: %v", out.Seed, out.Result.Failures)
				}
				if out.Result.BudgetExceeded {
					t.Fatalf("seed %d: budget exceeded", out.Seed)
				}
			}
		})
	}
}

func TestFutureRacyLeaksGoroutine(t *testing.T) {
	// Listing 9's second defect: when the cancel arm wins, the future
	// goroutine blocks forever on the unbuffered send.
	p, _ := ByID("future-ctx-cancel")
	leakRunner := core.NewRunner(core.WithDetector("none"), core.WithMaxSteps(1<<16))
	leaked := false
	for seed := int64(0); seed < 80 && !leaked; seed++ {
		out, err := leakRunner.RunSeed(p.Racy, seed)
		if err != nil {
			t.Fatal(err)
		}
		leaked = out.Result.Deadlocked()
	}
	if !leaked {
		t.Fatal("future goroutine never leaked across 80 seeds")
	}
}

func TestRacyReportsCarryListingFrames(t *testing.T) {
	// Reports from listing-based patterns should carry the pseudo
	// source files of the paper's listings.
	p, _ := ByID("capture-loop-index")
	for seed := int64(0); seed < 40; seed++ {
		out, err := runner.RunSeed(p.Racy, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range out.Races {
			if r.Second.Stack.Leaf().File == "listing1.go" || r.First.Stack.Leaf().File == "listing1.go" {
				return
			}
		}
	}
	t.Fatal("no report referenced listing1.go")
}

func TestCatalogInSyncWithFile(t *testing.T) {
	want := Catalog()
	got, err := os.ReadFile("../../PATTERNS.md")
	if err != nil {
		t.Fatalf("PATTERNS.md missing: %v (regenerate with the snippet in the test)", err)
	}
	if string(got) != want {
		t.Fatal("PATTERNS.md is stale; regenerate it from patterns.Catalog()")
	}
}
