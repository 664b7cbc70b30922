package detector

import (
	"math/rand"
	"testing"

	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// scanPager is the eviction policy FastTrack's LRU list replaced, kept
// as the oracle: each access stamps its page with a fresh tick, and an
// eviction scans the resident pages for the smallest stamp other than
// the current access's page, ties going to the lowest page index. It
// models paging alone, recording each victim.
type scanPager struct {
	budget             int
	tick               uint64
	touch              map[int]uint64 // resident page → tick of its last touch
	wasEver            map[int]bool
	victims            []int
	evictions, reloads int
	// skippedHead counts evictions whose coldest resident page was the
	// current access's own, so the victim was the next coldest.
	skippedHead int
}

func newScanPager(budget int) *scanPager {
	return &scanPager{budget: budget, touch: make(map[int]uint64), wasEver: make(map[int]bool)}
}

func (s *scanPager) access(pg int) {
	s.tick++
	if _, ok := s.touch[pg]; !ok {
		s.touch[pg] = 0
		if s.wasEver[pg] {
			s.reloads++
		}
	}
	if s.budget > 0 && len(s.touch) > s.budget {
		victim, coldest := -1, -1
		var best, bestAll uint64
		for p, t := range s.touch {
			if coldest == -1 || t < bestAll || (t == bestAll && p < coldest) {
				coldest, bestAll = p, t
			}
			if p == pg {
				continue
			}
			if victim == -1 || t < best || (t == best && p < victim) {
				victim, best = p, t
			}
		}
		if coldest == pg && s.touch[pg] != 0 {
			s.skippedHead++
		}
		if victim != -1 {
			delete(s.touch, victim)
			s.wasEver[victim] = true
			s.victims = append(s.victims, victim)
			s.evictions++
		}
	}
	s.touch[pg] = s.tick
}

// residentPages returns the indices of ft's resident pages.
func residentPages(ft *FastTrack) map[int]bool {
	res := make(map[int]bool)
	for i := range ft.pages {
		if ft.pages[i].resident {
			res[i] = true
		}
	}
	return res
}

// lruStep is one step of a paging stream: an access to a slot of a
// page or, when budget is nonzero, a new page budget and no access.
type lruStep struct {
	page, slot int
	budget     int
}

// randomPageStream returns n accesses over pages pages: most go to a
// small hot set that drifts over time, the rest anywhere, so pages are
// re-touched, go cold, evict and reload.
func randomPageStream(seed int64, n, pages int) []lruStep {
	rng := rand.New(rand.NewSource(seed))
	steps := make([]lruStep, n)
	hot := 0
	for i := range steps {
		if rng.Intn(64) == 0 {
			hot = rng.Intn(pages)
		}
		pg := rng.Intn(pages)
		if rng.Intn(4) != 0 {
			pg = (hot + rng.Intn(4)) % pages
		}
		steps[i] = lruStep{page: pg, slot: rng.Intn(pagedCellsPerPage)}
	}
	return steps
}

// cyclicLowered walks pages 0…pages-1 cyclically with every page
// resident, then lowers the budget to lowered and keeps walking. In a
// cyclic walk the next page is always the least recently touched, so
// every access after the drop asks eviction to skip the list's head.
func cyclicLowered(pages, lowered, rounds int) []lruStep {
	var steps []lruStep
	for r := 0; r < rounds; r++ {
		if r == rounds/2 {
			steps = append(steps, lruStep{budget: lowered})
		}
		for pg := 0; pg < pages; pg++ {
			steps = append(steps, lruStep{page: pg, slot: (r*7 + pg) % pagedCellsPerPage})
		}
	}
	return steps
}

// TestLRUMatchesScan pins the LRU list to the scan it replaced: over
// random streams and budgets 1, 2, 3 and 62, and over a budget lowered
// mid-stream (the only way the current access's page can be the list's
// head), the detector evicts the same victims at the same accesses,
// with the same LivePages, Evictions and Reloads, as a per-access
// tick with a lowest-index tie-break.
func TestLRUMatchesScan(t *testing.T) {
	type run struct {
		name   string
		budget int
		steps  []lruStep
		// skips requires some eviction to have skipped the head.
		skips bool
	}
	var runs []run
	for _, budget := range []int{1, 2, 3, 62} {
		for seed := int64(1); seed <= 3; seed++ {
			runs = append(runs, run{"random", budget, randomPageStream(seed, 4000, 64), false})
		}
	}
	runs = append(runs,
		run{"cyclic-lowered-to-2", 62, cyclicLowered(40, 2, 6), true},
		run{"cyclic-lowered-to-1", 62, cyclicLowered(40, 1, 6), true},
		run{"random-lowered-to-3", 62, append(randomPageStream(9, 2000, 64),
			append([]lruStep{{budget: 3}}, randomPageStream(10, 2000, 64)...)...), false},
	)
	for _, r := range runs {
		ft := NewFastTrack()
		ft.SetPageBudget(r.budget)
		oracle := newScanPager(r.budget)
		var victims []int
		seq := uint64(0)
		for i, st := range r.steps {
			if st.budget != 0 {
				ft.SetPageBudget(st.budget)
				oracle.budget = st.budget
				continue
			}
			before := residentPages(ft)
			seq++
			op := trace.OpWrite
			if seq%3 == 0 {
				op = trace.OpRead
			}
			ft.HandleEvent(trace.Event{Seq: seq, G: vclock.TID(1 + seq%2), Op: op,
				Addr: trace.Addr(st.page*pagedCellsPerPage + st.slot)})
			oracle.access(st.page)
			for pg := range before {
				if !ft.pages[pg].resident {
					victims = append(victims, pg)
				}
			}
			if len(victims) != len(oracle.victims) || (len(victims) > 0 && victims[len(victims)-1] != oracle.victims[len(oracle.victims)-1]) {
				t.Fatalf("%s budget %d, access %d (page %d): victims %v, scan evicts %v",
					r.name, r.budget, i, st.page, tail(victims), tail(oracle.victims))
			}
			if got, want := ft.LivePages(), len(oracle.touch); got != want {
				t.Fatalf("%s budget %d, access %d: LivePages() = %d, scan holds %d", r.name, r.budget, i, got, want)
			}
		}
		s := ft.Stats()
		if s.Evictions != oracle.evictions || s.Reloads != oracle.reloads {
			t.Fatalf("%s budget %d: evictions/reloads %d/%d, scan %d/%d",
				r.name, r.budget, s.Evictions, s.Reloads, oracle.evictions, oracle.reloads)
		}
		if r.budget < 62 && s.Evictions == 0 {
			t.Fatalf("%s budget %d: stream never evicted", r.name, r.budget)
		}
		if r.skips && oracle.skippedHead == 0 {
			t.Fatalf("%s: no eviction had to skip the current page", r.name)
		}
	}
}

// tail returns the last few elements of s, for failure messages.
func tail(s []int) []int {
	return s[max(0, len(s)-5):]
}

// shadowWalk counts, over ft's resident slabs, the cells holding
// access history and those holding a readers list, checking each
// page's own counts against its slab.
func shadowWalk(t *testing.T, ft *FastTrack) (used, promoted int) {
	t.Helper()
	for i := range ft.pages {
		p := &ft.pages[i]
		if !p.resident {
			continue
		}
		u, pr := 0, 0
		for j := range p.cells {
			if p.cells[j].used() {
				u++
			}
			if p.cells[j].readers != 0 {
				pr++
			}
		}
		if int(p.used) != u || int(p.promoted) != pr {
			t.Fatalf("page %d counts used=%d promoted=%d, its slab holds %d/%d", i, p.used, p.promoted, u, pr)
		}
		used += u
		promoted += pr
	}
	return used, promoted
}

// checkCounters requires Stats().Cells to equal the used cells of the
// resident slabs, and every readers list to be either free or held by
// exactly one promoted cell.
func checkCounters(t *testing.T, ft *FastTrack, when string) {
	t.Helper()
	used, promoted := shadowWalk(t, ft)
	if got := ft.Stats().Cells; got != used {
		t.Fatalf("%s: Stats().Cells = %d, resident slabs hold %d used cells", when, got, used)
	}
	if len(ft.readers) != len(ft.freeReaders)+promoted {
		t.Fatalf("%s: %d readers lists, %d free + %d promoted cells", when, len(ft.readers), len(ft.freeReaders), promoted)
	}
}

// TestPageCountersExact drives multi-reader cells, so promotions and
// demotions happen, under a tiny budget, and checks after every
// eviction (and after Reset) that the per-page counts eviction
// subtracts instead of walking agree with the slabs: Stats().Cells and
// the readers free list stay exact.
func TestPageCountersExact(t *testing.T) {
	ft := NewFastTrack()
	ft.SetPageBudget(2)
	rng := rand.New(rand.NewSource(7))
	seq := uint64(0)
	releasedPromoted := false
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 20000; i++ {
			pg := rng.Intn(5)
			if rng.Intn(8) != 0 {
				pg = i / 2000 % 5 // a slowly moving hot page
			}
			addr := trace.Addr(pg*pagedCellsPerPage + rng.Intn(32))
			op := trace.OpRead
			if rng.Intn(6) == 0 {
				op = trace.OpWrite
			}
			before := ft.Stats().Evictions
			var heldBefore map[int]int
			if p := ft.head; p != noPage {
				heldBefore = map[int]int{int(p): int(ft.pages[p].promoted)}
				if n := ft.pages[p].next; n != noPage {
					heldBefore[int(n)] = int(ft.pages[n].promoted)
				}
			}
			seq++
			ft.HandleEvent(trace.Event{Seq: seq, G: vclock.TID(1 + rng.Intn(3)), Op: op, Addr: addr})
			if ft.Stats().Evictions == before {
				continue
			}
			for pg, n := range heldBefore {
				if !ft.pages[pg].resident && n > 0 {
					releasedPromoted = true
				}
			}
			checkCounters(t, ft, "after an eviction")
		}
		if s := ft.Stats(); s.Promotions == 0 || s.Demotions == 0 || s.Evictions == 0 {
			t.Fatalf("pass %d: promotions=%d demotions=%d evictions=%d, want all > 0", pass, s.Promotions, s.Demotions, s.Evictions)
		}
		if !releasedPromoted {
			t.Fatalf("pass %d: no evicted page held a promoted cell", pass)
		}
		ft.Reset()
		checkCounters(t, ft, "after Reset")
		if ft.LivePages() != 0 || ft.head != noPage || ft.tail != noPage {
			t.Fatalf("Reset left %d live pages, head %d, tail %d", ft.LivePages(), ft.head, ft.tail)
		}
		releasedPromoted = false
	}
}
