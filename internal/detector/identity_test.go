package detector

import (
	"runtime"
	"testing"

	"gorace/internal/trace"
)

// TestMixedIdentitiesNeverAlias: a stream may mix default-mode and
// stable addresses (a hand-built or hostile trace can; the scheduler
// never does). The first stable identity must not share a shadow cell
// with dense address 1, so two unordered writes to the two distinct
// addresses are no race, in either order, in every address-indexed
// detector.
func TestMixedIdentitiesNeverAlias(t *testing.T) {
	const dense, stable = trace.Addr(1), trace.Addr(trace.StableBit | 12345)
	for _, name := range []string{"fasttrack", "epoch", "djit", "eraser", "hybrid"} {
		for _, order := range [][2]trace.Addr{{dense, stable}, {stable, dense}} {
			d, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			d.HandleEvent(trace.Event{Seq: 1, G: 1, Op: trace.OpWrite, Addr: order[0]})
			d.HandleEvent(trace.Event{Seq: 2, G: 2, Op: trace.OpWrite, Addr: order[1]})
			if rs := append(d.Races(), d.Candidates()...); len(rs) != 0 {
				t.Errorf("%s, writes to %#x then %#x: reported %d races, first on %#x",
					name, order[0], order[1], len(rs), uint64(rs[0].First.Addr))
			}
			if c, ok := d.(Counter); ok && c.Count() != 0 {
				t.Errorf("%s, writes to %#x then %#x: counted %d conflicts", name, order[0], order[1], c.Count())
			}
		}
	}
}

// TestMixedObjectIdentitiesNeverAlias: the first stable sync-object id
// must not share a clock with dense object 1. G1 writes an address and
// releases dense object 1; G2 acquires a distinct stable object and
// writes the same address. Nothing orders the two writes, so every
// happens-before detector reports the race.
func TestMixedObjectIdentitiesNeverAlias(t *testing.T) {
	const addr, dense, stable = trace.Addr(5), trace.ObjID(1), trace.ObjID(trace.StableBit | 777)
	for _, name := range []string{"fasttrack", "epoch", "djit", "hybrid"} {
		d, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range []trace.Event{
			{Seq: 1, G: 1, Op: trace.OpWrite, Addr: addr},
			{Seq: 2, G: 1, Op: trace.OpRelease, Obj: dense, Kind: trace.KindMutex},
			{Seq: 3, G: 2, Op: trace.OpAcquire, Obj: stable, Kind: trace.KindMutex},
			{Seq: 4, G: 2, Op: trace.OpWrite, Addr: addr},
		} {
			d.HandleEvent(ev)
		}
		if n := len(d.Races()); n == 0 {
			t.Errorf("%s: a release of object %d ordered an acquire of object %#x: no race reported",
				name, dense, uint64(stable))
		}
		if c, ok := d.(Counter); ok && c.Count() == 0 {
			t.Errorf("%s: counted no conflict on %#x", name, uint64(addr))
		}
		if st := d.Stats(); st.SyncClocks != 2 {
			t.Errorf("%s: %d sync clocks, want 2", name, st.SyncClocks)
		}
	}
}

// TestHeldLockLabelsCapped: a stream that acquires one mutex over and
// over without releasing it, writing after each acquire, holds a lock
// set one deeper at every write. The interned label lists stop at
// maxLockLabels plus the overflow marker, so 8,000 such events retain
// well under 1 MiB, where uncapped interning retained over 150 MiB.
func TestHeldLockLabelsCapped(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ft := NewFastTrack()
	for i := uint64(0); i < 4000; i++ {
		ft.HandleEvent(trace.Event{Seq: 2*i + 1, G: 1, Op: trace.OpAcquire, Obj: 1, Kind: trace.KindMutex, Label: "mu"})
		ft.HandleEvent(trace.Event{Seq: 2*i + 2, G: 1, Op: trace.OpWrite, Addr: 1})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ft)
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("retained %.0f KiB over %d interned lock sets", retained/(1<<10), len(ft.locks.sets))
	if retained >= 1<<20 {
		t.Fatalf("8,000 events retain %.2f MiB, want < 1 MiB", retained/(1<<20))
	}
	labels := ft.locks.heldLabels(1)
	if len(labels) != maxLockLabels+1 || labels[maxLockLabels] != lockOverflow || labels[0] != "mu" {
		t.Fatalf("a 4000-deep lock set is labelled %d labels ending %q", len(labels), labels[len(labels)-1])
	}
	if len(ft.locks.sets) != maxLockLabels+2 {
		t.Fatalf("%d interned lock sets, want the empty set, depths 1…%d and one cut set", len(ft.locks.sets), maxLockLabels)
	}
}
