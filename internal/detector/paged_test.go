package detector

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"gorace/internal/progen"
	"gorace/internal/sched"
	"gorace/internal/stack"
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

// TestShadowCellLayout pins the compact cell: at most 64 bytes (so a
// byte ceiling buys the page count PageBytes promises) and no pointer
// anywhere in it, so the garbage collector neither scans nor
// write-barriers shadow memory.
func TestShadowCellLayout(t *testing.T) {
	if size := unsafe.Sizeof(ftCell{}); size > 64 {
		t.Fatalf("ftCell is %d bytes, want <= 64", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s: shadow cells must hold no pointers", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("ftCell", reflect.TypeOf(ftCell{}))
	if got, want := NewFastTrack().PageBytes(), pagedCellsPerPage*int(unsafe.Sizeof(ftCell{})); got != want {
		t.Fatalf("PageBytes() = %d, want one full slab, %d", got, want)
	}
}

// TestReportContextGrowsWithSites: the interned report context grows
// with distinct access sites, not with events — a context re-captured
// with the same frames on every access (as the scheduler does when the
// line moves) reuses its entry — while reports still carry each
// access's own stack.
func TestReportContextGrowsWithSites(t *testing.T) {
	ft := NewFastTrack()
	ft.HandleEvent(trace.Event{Op: trace.OpFork, G: 0, Child: 1})
	ft.HandleEvent(trace.Event{Op: trace.OpFork, G: 0, Child: 2})
	site := func(line int) stack.Context {
		return stack.NewContext(stack.Frame{Func: "main", File: "m.go", Line: 1}, stack.Frame{Func: "work", File: "w.go", Line: line})
	}
	seq := uint64(2)
	for i := 0; i < 1000; i++ {
		for g := vclock.TID(1); g <= 2; g++ {
			seq++
			ft.HandleEvent(trace.Event{Seq: seq, G: g, GName: "worker", Op: trace.OpWrite,
				Addr: trace.Addr(1 + i%300), Label: "x", Stack: site(10 + i%3)})
		}
	}
	// One entry per (line, op) site plus the reserved zero entry.
	if got := len(ft.metas); got != 1+3 {
		t.Fatalf("%d report-context entries after 2000 accesses at 3 sites, want 4", got)
	}
	if len(ft.Races()) == 0 {
		t.Fatal("no races from unordered writers")
	}
	for _, r := range ft.Races() {
		if want := site(10 + int(r.First.Seq-3)/2%3); !reflect.DeepEqual(r.First.Stack, want) {
			t.Fatalf("first access #%d has stack %v, want %v", r.First.Seq, r.First.Stack, want)
		}
	}
}

func TestSameFrames(t *testing.T) {
	a := stack.NewContext(stack.Frame{Func: "main", File: "m.go", Line: 1}, stack.Frame{Func: "work", File: "w.go", Line: 9})
	cases := []struct {
		name string
		o    stack.Context
		want bool
	}{
		{"same capture", a, true},
		{"re-captured", stack.NewContext(a.Frames()...), true},
		{"other line", stack.NewContext(stack.Frame{Func: "main", File: "m.go", Line: 1}, stack.Frame{Func: "work", File: "w.go", Line: 10}), false},
		{"other file", stack.NewContext(stack.Frame{Func: "main", File: "m.go", Line: 1}, stack.Frame{Func: "work", File: "x.go", Line: 9}), false},
		{"prefix", stack.NewContext(stack.Frame{Func: "main", File: "m.go", Line: 1}), false},
		{"empty", stack.Context{}, false},
	}
	for _, c := range cases {
		if got := sameFrames(a, c.o); got != c.want {
			t.Errorf("%s: sameFrames = %v, want %v", c.name, got, c.want)
		}
		if got := sameFrames(c.o, a); got != c.want {
			t.Errorf("%s (reversed): sameFrames = %v, want %v", c.name, got, c.want)
		}
	}
	if !sameFrames(stack.Context{}, stack.NewContext()) {
		t.Error("empty contexts differ")
	}
}

// idPageKeys returns the identities id page pg holds: its live keys in
// the address index.
func idPageKeys(ft *FastTrack, pg int) []uint64 {
	var out []uint64
	for k, v := range ft.addrIx.keys {
		if v != 0 && stablePage0+k/pagedCellsPerPage == pg {
			out = append(out, v)
		}
	}
	return out
}

// checkIDPages requires the address index to hold exactly the
// identities of resident id pages, the fill page to be off the free
// list, every free id page to be non-resident, and the id pages ever
// opened to stay within the budget plus the fill page.
func checkIDPages(t *testing.T, ft *FastTrack, budget int, when string) {
	t.Helper()
	onResident := 0
	for k, v := range ft.addrIx.keys {
		if v == 0 {
			continue
		}
		pg := stablePage0 + k/pagedCellsPerPage
		if pg >= len(ft.pages) || !ft.pages[pg].resident {
			t.Fatalf("%s: identity %#x indexed on non-resident page %d", when, v, pg)
		}
		onResident++
	}
	if ft.addrIx.live != onResident {
		t.Fatalf("%s: index holds %d live identities, resident id pages %d", when, ft.addrIx.live, onResident)
	}
	for _, f := range ft.freeIDPages {
		if f == ft.fill {
			t.Fatalf("%s: fill page %d is on the free list %v", when, f, ft.freeIDPages)
		}
		if ft.pages[stablePage0+int(f)].resident {
			t.Fatalf("%s: free id page %d is resident", when, f)
		}
	}
	if ft.idPages > budget+1 {
		t.Fatalf("%s: %d id pages opened under a budget of %d", when, ft.idPages, budget)
	}
}

// TestStableIdentitiesReleasedWithTheirPage drives a stable-identity
// stream, mixed with dense addresses, whose working set is many times
// a tiny page budget, and checks after every eviction that the victim
// page's identities left the address index and that the index holds
// exactly the identities of resident pages: identity state is bounded
// by resident pages, not by the identities the stream ever touched.
// Every third phase touches only dense pages, so a partly filled fill
// page goes cold and is evicted too. Returning identities must count
// as Reloads.
func TestStableIdentitiesReleasedWithTheirPage(t *testing.T) {
	const budget = 4
	ft := NewFastTrack()
	ft.SetPageBudget(budget)
	rng := rand.New(rand.NewSource(3))
	evictedIDs, fillEvicted := 0, 0
	for i := 0; i < 40000; i++ {
		addr := trace.Addr(trace.StableBit | uint64(rng.Intn(4000))*0x9e37)
		if i/2000%3 == 2 {
			addr = trace.Addr(rng.Intn(6 * pagedCellsPerPage)) // dense pages 0-5
		} else if rng.Intn(8) == 0 {
			addr = trace.Addr(rng.Intn(3 * pagedCellsPerPage))
		}
		op := trace.OpWrite
		if rng.Intn(3) == 0 {
			op = trace.OpRead
		}
		// Only the list's head, or the page after it, can be the victim.
		var candidates [][]uint64
		var candPages []int
		for p, n := ft.head, 0; p != noPage && n < 2; p, n = ft.pages[p].next, n+1 {
			candidates = append(candidates, idPageKeys(ft, int(p)))
			candPages = append(candPages, int(p))
		}
		before, fill := ft.Stats().Evictions, stablePage0+int(ft.fill)
		ft.HandleEvent(trace.Event{Seq: uint64(i + 1), G: vclock.TID(1 + rng.Intn(3)), Op: op, Addr: addr})
		if ft.Stats().Evictions == before {
			continue
		}
		for j, pg := range candPages {
			if ft.pages[pg].resident {
				continue
			}
			if pg == fill {
				fillEvicted++
			}
			for _, v := range candidates[j] {
				if s, _ := ft.addrIx.find(v); s != 0 {
					t.Fatalf("access %d: identity %#x of evicted page %d still resolves", i, v, pg)
				}
				evictedIDs++
			}
		}
		checkIDPages(t, ft, budget, fmt.Sprintf("access %d", i))
	}
	if st := ft.Stats(); evictedIDs == 0 || fillEvicted == 0 || st.Reloads == 0 {
		t.Fatalf("stream released %d identities, %d fill pages and reloaded %d, want all > 0",
			evictedIDs, fillEvicted, st.Reloads)
	}
	ft.Reset()
	checkIDPages(t, ft, budget, "after Reset")
	if ft.fill != noPage || ft.idPages != 0 || len(ft.addrIx.keys) != 0 {
		t.Fatalf("Reset left fill page %d, %d id pages, %d keys", ft.fill, ft.idPages, len(ft.addrIx.keys))
	}
}
