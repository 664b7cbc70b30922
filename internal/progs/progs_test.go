package progs_test

import (
	"slices"
	"sort"
	"testing"

	"gorace/internal/core"
	"gorace/internal/instrument"
	"gorace/internal/patterns"
	"gorace/internal/progs"
)

// seedsWithRace runs one program variant under FastTrack over a band
// of seeds and returns how many seeds manifested a race plus the
// sorted set of distinct race hashes seen.
func seedsWithRace(t *testing.T, p progs.Program, racy bool, seeds int) (hits int, hashes []string) {
	t.Helper()
	entry := p.Racy
	if !racy {
		entry = p.Fixed
	}
	seen := map[string]bool{}
	runner := core.NewRunner(core.WithDetector("fasttrack"))
	for seed := int64(0); seed < int64(seeds); seed++ {
		out, err := runner.RunSeed(entry, seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", p.Name, seed, err)
		}
		if out.HasRace() {
			hits++
		}
		for _, r := range out.Races {
			seen[r.Hash()] = true
		}
	}
	for h := range seen {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	return hits, hashes
}

// TestRacyProgramsManifest is the end-to-end acceptance check: every
// instrumented racy program yields a FastTrack race within a modest
// seed band, and its fixed counterpart never does.
func TestRacyProgramsManifest(t *testing.T) {
	const seeds = 30
	for _, p := range progs.Programs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			hits, _ := seedsWithRace(t, p, true, seeds)
			if hits == 0 {
				t.Errorf("racy %s: no race in %d seeds", p.Name, seeds)
			}
			if p.Fixed == nil {
				return
			}
			if fhits, _ := seedsWithRace(t, p, false, seeds); fhits != 0 {
				t.Errorf("fixed %s: race manifested in %d/%d seeds", p.Name, fhits, seeds)
			}
		})
	}
}

// TestRaceHashesStableAcrossRuns pins the stable-identity guarantee at
// the program level: because instrumented programs run under
// g.StableIDs, the set of race hashes a seed band produces is
// identical from process run to run and independent of which seed
// found each race first. Two full sweeps must agree exactly.
func TestRaceHashesStableAcrossRuns(t *testing.T) {
	const seeds = 20
	for _, p := range progs.Programs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			_, first := seedsWithRace(t, p, true, seeds)
			if len(first) == 0 {
				t.Fatalf("racy %s: no hashes in %d seeds", p.Name, seeds)
			}
			_, second := seedsWithRace(t, p, true, seeds)
			if len(first) != len(second) {
				t.Fatalf("hash sets differ in size: %d vs %d", len(first), len(second))
			}
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("hash %d differs: %s vs %s", i, first[i], second[i])
				}
			}
		})
	}
}

// TestRegistryComplete checks the program table lists every dogfood
// spec, in the same name order, with both variants wired.
func TestRegistryComplete(t *testing.T) {
	dogfood, table := instrument.DogfoodPrograms(), progs.Programs()
	if len(table) != len(dogfood) {
		t.Fatalf("%d programs, %d dogfood specs", len(table), len(dogfood))
	}
	for i, d := range dogfood {
		if p := table[i]; p.Name != d.Name || p.Racy == nil || p.Fixed == nil {
			t.Errorf("program %d = %q (racy %t, fixed %t), want dogfood %s with both variants",
				i, p.Name, p.Racy != nil, p.Fixed != nil, d.Name)
		}
	}
}

// TestCatalogResolvesEveryTarget: IDs lists the pattern corpus, then
// every program as prog:<name>, and each listed id resolves
// to a body under both variants; unknown ids and variants fail with
// the texts the CLIs and raced's 400 answers print.
func TestCatalogResolvesEveryTarget(t *testing.T) {
	ids := progs.IDs("racy")
	pats := patterns.IDs()
	if !slices.Equal(ids[:len(pats)], pats) {
		t.Fatalf("IDs does not open with the pattern corpus: %v", ids)
	}
	var want []string
	for _, p := range progs.Programs() {
		want = append(want, "prog:"+p.Name)
	}
	if !slices.Equal(ids[len(pats):], want) {
		t.Fatalf("IDs programs = %v, want %v", ids[len(pats):], want)
	}
	if fixed := progs.IDs("fixed"); !slices.Equal(fixed, ids) {
		t.Fatalf("every program has a fixed body, yet IDs(fixed) = %v", fixed)
	}
	for _, id := range ids {
		for _, variant := range []string{"racy", "fixed"} {
			if body, err := progs.Resolve(id, variant); err != nil || body == nil {
				t.Errorf("Resolve(%q, %q) = nil body, %v", id, variant, err)
			}
		}
	}
	for _, c := range []struct{ id, variant, err string }{
		{"no-such-pattern", "racy", `unknown pattern "no-such-pattern"`},
		{"prog:no-such-program", "racy", `unknown program "no-such-program"`},
		{"capture-err", "flaky", `variant "flaky" (want racy or fixed)`},
	} {
		if _, err := progs.Resolve(c.id, c.variant); err == nil || err.Error() != c.err {
			t.Errorf("Resolve(%q, %q) error = %v, want %q", c.id, c.variant, err, c.err)
		}
	}
}
