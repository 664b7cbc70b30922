package detector

import (
	"reflect"
	"testing"

	"gorace/internal/progen"
	"gorace/internal/sched"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// runProgen runs progen program seed once under a random schedule with
// the given listeners attached.
func runProgen(seed int64, ls ...trace.Listener) {
	prog := progen.Generate(seed, progen.Params{})
	sched.Run(prog.Main(), sched.Options{
		Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 18,
		Listeners: ls,
	})
}

// TestPagedFastTrackUnboundedMatchesPlain pins the Evictor identity: a
// page budget large enough never to evict yields the exact ordered
// report sequence of the unbudgeted detector over a broad program
// sample — paging is a retention policy, not an algorithm change.
func TestPagedFastTrackUnboundedMatchesPlain(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		plain := NewFastTrack()
		roomy := NewFastTrack()
		roomy.SetPageBudget(1 << 20)
		runProgen(seed, plain, roomy)
		got, want := raceHashes(roomy.Races()), raceHashes(plain.Races())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: budgeted run diverged:\nbudget  %v\nnone    %v", seed, got, want)
		}
		for _, ft := range []*FastTrack{plain, roomy} {
			if st := ft.Stats(); st.Evictions != 0 || st.Reloads != 0 {
				t.Fatalf("seed %d: run without eviction pressure evicted (evictions=%d reloads=%d)",
					seed, st.Evictions, st.Reloads)
			}
		}
	}
}

// pageWalk feeds l a write walk over pages+2 pages of addresses, twice,
// so that under a budget of pages cold pages evict and re-fault, with a
// same-page racing pair (writes by g1 and g2 to cell 7, no sync) that
// stays hot throughout.
func pageWalk(l trace.Listener, pages int) {
	seq := uint64(0)
	emit := func(g int, op trace.Op, addr uint64) {
		seq++
		l.HandleEvent(trace.Event{Seq: seq, G: vclock.TID(g), Op: op, Addr: trace.Addr(addr)})
	}
	for pass := 0; pass < 2; pass++ {
		for a := uint64(1); a <= uint64(pages+2)*pagedCellsPerPage; a++ {
			emit(1, trace.OpWrite, a)
			emit(2, trace.OpWrite, 7)
		}
	}
}

// TestPagedFastTrackEvicts checks the Evictor contract at several
// budgets: (a) the budget holds, (b) evictions and reloads are
// observed, and (c) every surviving report is one the unbudgeted
// detector also makes — eviction may only lose races, never invent
// them.
func TestPagedFastTrackEvicts(t *testing.T) {
	for _, budget := range []int{1, 2, 8} {
		plain := NewFastTrack()
		paged := NewFastTrack()
		paged.SetPageBudget(budget)
		pageWalk(trace.Multi{plain, paged}, budget)

		if got := paged.LivePages(); got > budget {
			t.Fatalf("budget %d: LivePages() = %d", budget, got)
		}
		st := paged.Stats()
		if st.Evictions == 0 || st.Reloads == 0 {
			t.Fatalf("budget %d: wide walk gave evictions=%d reloads=%d, want both > 0",
				budget, st.Evictions, st.Reloads)
		}
		if len(paged.Races()) == 0 {
			t.Fatalf("budget %d: hot racing cell went unreported under eviction", budget)
		}
		plainSet := make(map[string]bool)
		for _, h := range raceHashes(plain.Races()) {
			plainSet[h] = true
		}
		for _, h := range raceHashes(paged.Races()) {
			if !plainSet[h] {
				t.Fatalf("budget %d: reported race %s that the unbudgeted run did not", budget, h)
			}
		}
	}
	if pb := NewFastTrack().PageBytes(); pb <= 0 {
		t.Fatalf("PageBytes() = %d, want positive", pb)
	}
}

// TestPagedFastTrackResetRewindsPaging verifies Reset clears eviction
// state so a recycled detector starts its next run cold — and keeps
// the budget, so the rerun evicts exactly as the first run did.
func TestPagedFastTrackResetRewindsPaging(t *testing.T) {
	paged := NewFastTrack()
	paged.SetPageBudget(1)
	pageWalk(paged, 1)
	first := paged.Stats()
	if first.Evictions == 0 {
		t.Fatal("setup walk never evicted")
	}
	paged.Reset()
	st := paged.Stats()
	if st.Evictions != 0 || st.Reloads != 0 || paged.LivePages() != 0 {
		t.Fatalf("Reset left paging state: evictions=%d reloads=%d live=%d",
			st.Evictions, st.Reloads, paged.LivePages())
	}
	pageWalk(paged, 1)
	if again := paged.Stats(); again.Evictions != first.Evictions || again.Reloads != first.Reloads {
		t.Fatalf("rerun after Reset: evictions=%d reloads=%d, first run %d/%d (budget lost?)",
			again.Evictions, again.Reloads, first.Evictions, first.Reloads)
	}
}

// TestPagedAliasMatchesFastTrack: the "fasttrack-paged" registry name
// is an alias for FastTrack, so the two names report identically and
// both can run under a page budget.
func TestPagedAliasMatchesFastTrack(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		alias, err := New("fasttrack-paged")
		if err != nil {
			t.Fatal(err)
		}
		plain, err := New("fasttrack")
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []Detector{alias, plain} {
			if _, ok := d.(Evictor); !ok {
				t.Fatalf("%T is not an Evictor", d)
			}
		}
		runProgen(seed, alias, plain)
		if got, want := raceHashes(alias.Races()), raceHashes(plain.Races()); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: fasttrack-paged reported %v, fasttrack %v", seed, got, want)
		}
	}
}
