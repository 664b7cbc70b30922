package vclock

import (
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var v VC
	if got := v.Get(3); got != 0 {
		t.Fatalf("Get on zero VC = %d, want 0", got)
	}
	v.Tick(2)
	if got := v.Get(2); got != 1 {
		t.Fatalf("after Tick, Get = %d, want 1", got)
	}
}

func TestTickMonotonic(t *testing.T) {
	v := New()
	for i := 1; i <= 100; i++ {
		if got := v.Tick(0); got != uint32(i) {
			t.Fatalf("Tick %d returned %d", i, got)
		}
	}
}

func TestJoinPointwiseMax(t *testing.T) {
	a, b := New(), New()
	a.Set(0, 5)
	a.Set(1, 1)
	b.Set(1, 7)
	b.Set(2, 3)
	b.JoinInto(a)
	want := []uint32{5, 7, 3}
	for i, w := range want {
		if got := a.Get(TID(i)); got != w {
			t.Errorf("component %d = %d, want %d", i, got, w)
		}
	}
}

func TestJoinNilIsNoop(t *testing.T) {
	a := New()
	a.Set(0, 2)
	var none *VC
	none.JoinInto(a)
	if a.Get(0) != 2 {
		t.Fatal("joining a nil clock modified the destination")
	}
}

func TestCopyIndependence(t *testing.T) {
	a := New()
	a.Set(0, 1)
	c := New()
	a.CopyInto(c)
	c.Set(0, 99)
	if a.Get(0) != 1 {
		t.Fatal("CopyInto aliases the original")
	}
}

// An event by g0 at clock a happens before an event by g1 at clock b
// iff g0's epoch at a is ≤ b — the check every detector makes.
func TestHappensBeforeOrdering(t *testing.T) {
	a, b := New(), New()
	a.Set(0, 1)
	b.Set(0, 2)
	b.Set(1, 1)
	if !MakeEpoch(0, a.Get(0)).LeqVC(b) {
		t.Error("a should happen before b")
	}
	if MakeEpoch(1, b.Get(1)).LeqVC(a) {
		t.Error("b must not happen before a")
	}
}

func TestConcurrentClocks(t *testing.T) {
	a, b := New(), New()
	a.Set(0, 2)
	b.Set(1, 2)
	if MakeEpoch(0, a.Get(0)).LeqVC(b) || MakeEpoch(1, b.Get(1)).LeqVC(a) {
		t.Error("disjoint nonzero clocks must be concurrent")
	}
}

func TestStringFormat(t *testing.T) {
	a := New()
	if s := a.String(); s != "{}" {
		t.Fatalf("empty VC String = %q", s)
	}
	a.Set(1, 3)
	if s := a.String(); s != "{g1:3}" {
		t.Fatalf("String = %q", s)
	}
}

func TestEpochPackUnpack(t *testing.T) {
	e := MakeEpoch(7, 42)
	if e.TID() != 7 || e.Time() != 42 {
		t.Fatalf("round trip got (%d,%d)", e.TID(), e.Time())
	}
	// Logical times start at 1, so goroutine 0's first epoch is not
	// the zero word that means "no access".
	if MakeEpoch(0, 1) == 0 {
		t.Fatal("a real epoch packed to the empty word")
	}
}

func TestEpochLeqVC(t *testing.T) {
	v := New()
	v.Set(3, 10)
	if !MakeEpoch(3, 10).LeqVC(v) {
		t.Error("equal time should be Leq")
	}
	if MakeEpoch(3, 11).LeqVC(v) {
		t.Error("later time should not be Leq")
	}
	var none Epoch
	if !none.LeqVC(v) || !none.LeqVC(New()) {
		t.Error("the zero epoch should be Leq everything")
	}
}

// readers lists h's recorded accesses as epochs, in ForEach order.
// The ReadSet tests below exercise a History as the epoch detector's
// read set: updated by NoteRead, FastTrack's read-share rule.
func readers(h *History) []Epoch {
	var out []Epoch
	h.ForEach(func(g TID, t uint32) { out = append(out, MakeEpoch(g, t)) })
	return out
}

func TestReadSetSameThreadStaysEpoch(t *testing.T) {
	var h History
	p := NewPool()
	cur := New()
	cur.Set(0, 1)
	h.NoteRead(0, 1, cur, p)
	cur.Set(0, 2)
	h.NoteRead(0, 2, cur, p)
	if h.IsInflated() {
		t.Fatal("same-thread reads must not inflate")
	}
	if got := readers(&h); len(got) != 1 || got[0] != MakeEpoch(0, 2) {
		t.Fatalf("readers = %v", got)
	}
}

func TestReadSetOrderedReadsStayEpoch(t *testing.T) {
	var h History
	p := NewPool()
	// g0 reads at time 1; then g1, whose clock includes g0@1, reads.
	c0 := New()
	c0.Set(0, 1)
	h.NoteRead(0, 1, c0, p)
	c1 := New()
	c1.Set(0, 1) // g1 has synchronized with g0
	c1.Set(1, 4)
	if h.NoteRead(1, 4, c1, p) || h.IsInflated() {
		t.Fatal("ordered cross-thread reads must not inflate")
	}
	if got := readers(&h); len(got) != 1 || got[0] != MakeEpoch(1, 4) {
		t.Fatalf("readers = %v", got)
	}
}

func TestReadSetConcurrentReadsInflate(t *testing.T) {
	var h History
	p := NewPool()
	c0 := New()
	c0.Set(0, 1)
	if h.NoteRead(0, 1, c0, p) {
		t.Fatal("the first read promoted")
	}
	c1 := New()
	c1.Set(1, 2) // no knowledge of g0
	if !h.NoteRead(1, 2, c1, p) || !h.IsInflated() {
		t.Fatal("concurrent reads must inflate")
	}
	got := readers(&h)
	if len(got) != 2 || got[0] != MakeEpoch(0, 1) || got[1] != MakeEpoch(1, 2) {
		t.Fatalf("readers = %v", got)
	}
}

// The one place the two rules differ: a second goroutine's access
// ordered after the recorded one replaces it under NoteRead, but Set
// keeps both goroutines' times and so inflates.
func TestHistorySetVsNoteRead(t *testing.T) {
	p := NewPool()
	c1 := New()
	c1.Set(0, 1) // g1 has synchronized with g0's access at time 1
	c1.Set(1, 3)

	var read, set History
	read.NoteRead(0, 1, New(), p)
	set.Set(0, 1, p)
	if read.NoteRead(1, 3, c1, p) {
		t.Fatal("NoteRead inflated on an ordered read")
	}
	if !set.Set(1, 3, p) {
		t.Fatal("Set did not inflate on a second goroutine")
	}
	if got := readers(&read); len(got) != 1 || got[0] != MakeEpoch(1, 3) {
		t.Fatalf("NoteRead history = %v", got)
	}
	if got := readers(&set); len(got) != 2 || got[0] != MakeEpoch(0, 1) || got[1] != MakeEpoch(1, 3) {
		t.Fatalf("Set history = %v", got)
	}
	// Set on the inflated form overwrites one component and promotes
	// nothing.
	if set.Set(0, 4, p) {
		t.Fatal("an inflated history promoted again")
	}
	if got := readers(&set); len(got) != 2 || got[0] != MakeEpoch(0, 4) {
		t.Fatalf("Set history after update = %v", got)
	}
	// A same-goroutine Set stays in epoch form.
	var own History
	own.Set(2, 1, p)
	if own.Set(2, 5, p) || own.IsInflated() {
		t.Fatal("same-goroutine Set inflated")
	}
}

func TestReadSetInflatedOperations(t *testing.T) {
	var h History
	p := NewPool()
	// Three concurrent readers inflate the history.
	for tid := TID(0); tid < 3; tid++ {
		c := New()
		c.Set(tid, uint32(tid)+1)
		h.NoteRead(tid, uint32(tid)+1, c, p)
	}
	if !h.IsInflated() {
		t.Fatal("three concurrent readers should inflate")
	}
	// A read on the inflated form overwrites its goroutine's
	// component, even when ordered after every recorded read, and
	// promotes nothing.
	all := New()
	all.Set(0, 1)
	all.Set(1, 9)
	all.Set(2, 3)
	if h.NoteRead(1, 9, all, p) {
		t.Fatal("an inflated read set promoted again")
	}
	want := []Epoch{MakeEpoch(0, 1), MakeEpoch(1, 9), MakeEpoch(2, 3)}
	got := readers(&h)
	if len(got) != len(want) {
		t.Fatalf("readers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("readers = %v, want %v", got, want)
		}
	}
}

// ReleaseTo reports a demotion only when it returned a clock to the
// pool, and leaves the history empty and reusable either way.
func TestHistoryReleaseTo(t *testing.T) {
	p := NewPool()
	var h History
	if h.ReleaseTo(p) {
		t.Fatal("releasing an empty history reported a demotion")
	}
	h.Set(0, 1, p)
	if h.ReleaseTo(p) || len(readers(&h)) != 0 || len(p.free) != 0 {
		t.Fatal("releasing an epoch-form history demoted or left a reader")
	}
	for round := 0; round < 3; round++ {
		h.Set(0, 1, p)
		h.Set(1, 2, p)
		if !h.ReleaseTo(p) {
			t.Fatalf("round %d: releasing an inflated history reported no demotion", round)
		}
		if h.IsInflated() || len(readers(&h)) != 0 || len(p.free) != 1 {
			t.Fatalf("round %d: ReleaseTo left %v, pool %d", round, readers(&h), len(p.free))
		}
	}
	// Reused after release, the history starts over in epoch form.
	if h.NoteRead(3, 4, New(), p) || h.IsInflated() {
		t.Fatal("a released history did not start over in epoch form")
	}
	if got := readers(&h); len(got) != 1 || got[0] != MakeEpoch(3, 4) {
		t.Fatalf("readers after reuse = %v", got)
	}
}

// Property: Join is commutative, associative, idempotent (a semilattice),
// and a ⊔ b is an upper bound of a and b.
func TestJoinSemilatticeProperties(t *testing.T) {
	mk := func(xs []uint8) *VC {
		v := New()
		for i, x := range xs {
			v.Set(TID(i), uint32(x))
		}
		return v
	}
	leq := func(a, b *VC) bool {
		for i, t := range a.ts {
			if t > b.Get(TID(i)) {
				return false
			}
		}
		return true
	}
	eq := func(a, b *VC) bool { return leq(a, b) && leq(b, a) }

	comm := func(xs, ys []uint8) bool {
		a1, b1 := mk(xs), mk(ys)
		a2, b2 := mk(xs), mk(ys)
		b1.JoinInto(a1)
		a2.JoinInto(b2)
		return eq(a1, b2)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}

	assoc := func(xs, ys, zs []uint8) bool {
		l := mk(xs)
		mk(ys).JoinInto(l)
		mk(zs).JoinInto(l)
		r2 := mk(ys)
		mk(zs).JoinInto(r2)
		r1 := mk(xs)
		r2.JoinInto(r1)
		return eq(l, r1)
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}

	idem := func(xs []uint8) bool {
		a := mk(xs)
		b := mk(xs)
		b.JoinInto(a)
		return eq(a, b)
	}
	if err := quick.Check(idem, nil); err != nil {
		t.Errorf("idempotence: %v", err)
	}

	upper := func(xs, ys []uint8) bool {
		a, b := mk(xs), mk(ys)
		j := New()
		a.CopyInto(j)
		b.JoinInto(j)
		return leq(a, j) && leq(b, j)
	}
	if err := quick.Check(upper, nil); err != nil {
		t.Errorf("upper bound: %v", err)
	}
}

// Property: epoch pack/unpack is lossless for arbitrary inputs.
func TestEpochRoundTripProperty(t *testing.T) {
	f := func(tid int16, tm uint32) bool {
		if tid < 0 {
			tid = -tid
		}
		e := MakeEpoch(TID(tid), tm)
		return e.TID() == TID(tid) && e.Time() == tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkVCJoin(b *testing.B) {
	a, o := New(), New()
	for i := 0; i < 64; i++ {
		a.Set(TID(i), uint32(i))
		o.Set(TID(i), uint32(64-i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.JoinInto(a)
	}
}

func BenchmarkEpochLeqVC(b *testing.B) {
	v := New()
	v.Set(63, 100)
	e := MakeEpoch(63, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !e.LeqVC(v) {
			b.Fatal("unexpected")
		}
	}
}
