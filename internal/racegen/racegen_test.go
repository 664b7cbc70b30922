package racegen

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"gorace/internal/taxonomy"
)

// TestSuiteReplayByteStable is the regression replay: every committed
// keeper must reproduce its captured verdict signatures exactly, at
// parallelism 1 and at parallelism 8. A diff here means a detector or
// the scheduler changed observable behavior on a program the panel
// historically disagreed about.
func TestSuiteReplayByteStable(t *testing.T) {
	suite, err := Suite()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) < 10 {
		t.Fatalf("committed suite has %d keepers, want >= 10", len(suite))
	}
	for _, par := range []int{1, 8} {
		for _, k := range suite {
			got, err := Replay(Config{Parallelism: par}, k)
			if err != nil {
				t.Fatalf("keeper %s (par %d): %v", k.ID, par, err)
			}
			if !reflect.DeepEqual(got, k.Verdicts) {
				t.Errorf("keeper %s (par %d): verdicts drifted\ngot:  %v\nwant: %v",
					k.ID, par, got, k.Verdicts)
			}
		}
	}
}

// TestSuiteStillDiscriminates: each keeper's committed verdicts must
// actually disagree — a suite of agreed-upon programs tests nothing.
func TestSuiteStillDiscriminates(t *testing.T) {
	suite, err := Suite()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range suite {
		split := false
		for _, strat := range Strategies {
			sigs := make(map[string]bool)
			for _, det := range Detectors {
				sigs[k.Verdicts[det+"/"+strat]] = true
			}
			if len(sigs) > 1 {
				split = true
			}
		}
		if !split {
			t.Errorf("keeper %s: all detectors agree, not a discriminator", k.ID)
		}
	}
}

// TestSuiteFillsCategories pins the acceptance criterion: the suite
// covers at least three taxonomy categories the pattern catalog
// under-represents (everything except its over-sampled staples).
func TestSuiteFillsCategories(t *testing.T) {
	suite, err := Suite()
	if err != nil {
		t.Fatal(err)
	}
	common := map[taxonomy.Category]bool{
		taxonomy.CatMissingLock: true,
		taxonomy.CatSlice:       true,
		taxonomy.CatUnknown:     true,
	}
	rare := make(map[taxonomy.Category]int)
	for _, k := range suite {
		if !common[k.Category] {
			rare[k.Category]++
		}
	}
	if len(rare) < 3 {
		t.Fatalf("suite fills %d under-represented categories (%v), want >= 3", len(rare), rare)
	}
}

// TestRunDeterministicAcrossParallelism: the whole loop — proposals,
// scores, keepers, minimization, round stats — must be identical at
// parallelism 1 and 8.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) *Result {
		res, err := Run(context.Background(), Config{Rounds: 2, Budget: 4, Seeds: 3, BaseSeed: 77, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if len(a.Keepers) != len(b.Keepers) {
		t.Fatalf("keeper count differs by parallelism: %d vs %d", len(a.Keepers), len(b.Keepers))
	}
	for i := range a.Keepers {
		if a.Keepers[i].ID != b.Keepers[i].ID {
			t.Fatalf("keeper %d differs: %s vs %s", i, a.Keepers[i].ID, b.Keepers[i].ID)
		}
		if !reflect.DeepEqual(a.Keepers[i].Verdicts, b.Keepers[i].Verdicts) {
			t.Fatalf("keeper %s verdicts differ by parallelism", a.Keepers[i].ID)
		}
	}
	if !reflect.DeepEqual(a.Rounds, b.Rounds) {
		t.Fatalf("round stats differ:\n%+v\n%+v", a.Rounds, b.Rounds)
	}
	if !reflect.DeepEqual(a.Fill, b.Fill) {
		t.Fatalf("category fill differs: %v vs %v", a.Fill, b.Fill)
	}
}

// TestFoldProducesCorpusRecords: keepers must land in the collector
// with racegen-prefixed unit IDs, ready to AppendTo a store.
func TestFoldProducesCorpusRecords(t *testing.T) {
	res, err := Run(context.Background(), Config{Rounds: 1, Budget: 4, Seeds: 3, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collector == nil {
		t.Fatal("no collector")
	}
	if len(res.Keepers) == 0 {
		t.Skip("no keepers at this seed")
	}
	recs := res.Collector.Records()
	if len(recs) == 0 {
		t.Fatal("keepers folded no corpus records")
	}
	for _, rec := range recs {
		if rec.Category == "" {
			t.Errorf("record %q has no category", rec.Key)
		}
	}
}

func TestMarkdownRendersTables(t *testing.T) {
	res := &Result{
		Rounds: []RoundStat{{Round: 1, Candidates: 4, Disagreeing: 2, Kept: 1, NewEdges: 10, TotalEdges: 10}},
		Fill:   map[taxonomy.Category]int{taxonomy.CatMap: 1},
	}
	md := Markdown(res)
	for _, want := range []string{"### racegen rounds", "| 1 | 4 | 2 | 1 | 10 | 10 |", "### category fill", "| map | 1 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestRunStopsOnCancelledContext: a loop whose context is already
// done runs no round and returns the context's error.
func TestRunStopsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := Run(ctx, Config{Rounds: 2, Budget: 4, Seeds: 3}); res != nil || err != context.Canceled {
		t.Fatalf("Run(cancelled) = %v, %v; want nil, %v", res, err, context.Canceled)
	}
}
