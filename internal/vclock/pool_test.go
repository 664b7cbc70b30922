package vclock

import "testing"

func TestPoolAcquireEmpty(t *testing.T) {
	p := NewPool()
	v := p.Acquire()
	if v == nil || len(v.ts) != 0 {
		t.Fatalf("fresh clock not empty: %v", v)
	}
	if got := v.Get(5); got != 0 {
		t.Fatalf("component 5 = %d on a fresh clock", got)
	}
}

func TestPoolReusesReleasedClock(t *testing.T) {
	p := NewPool()
	v := p.Acquire()
	v.Set(3, 7)
	v.Set(9, 2)
	p.Release(v)
	if len(p.free) != 1 {
		t.Fatalf("pool holds %d clocks after one release", len(p.free))
	}
	w := p.Acquire()
	if w != v {
		t.Fatal("released clock not reused (freelist is LIFO)")
	}
	if len(p.free) != 0 {
		t.Fatalf("pool holds %d clocks after re-acquire", len(p.free))
	}
}

func TestPoolNoStaleComponentsAfterRelease(t *testing.T) {
	// A recycled clock must read all-zero even though its backing
	// array held nonzero components when it was released.
	p := NewPool()
	v := p.Acquire()
	for tid := TID(0); tid < 16; tid++ {
		v.Set(tid, uint32(100+tid))
	}
	p.Release(v)
	w := p.Acquire()
	if len(w.ts) != 0 {
		t.Fatalf("recycled clock reports %d components", len(w.ts))
	}
	for tid := TID(0); tid < 32; tid++ {
		if got := w.Get(tid); got != 0 {
			t.Fatalf("stale component leaked: g%d = %d", tid, got)
		}
	}
	// Growing back over the previously-used range must see zeros, not
	// the old values lingering in capacity.
	w.Tick(15)
	for tid := TID(0); tid < 15; tid++ {
		if got := w.Get(tid); got != 0 {
			t.Fatalf("grow exposed stale component: g%d = %d", tid, got)
		}
	}
	if w.Get(15) != 1 {
		t.Fatalf("tick on recycled clock = %d, want 1", w.Get(15))
	}
}

func TestPoolNoAliasingAcrossAcquires(t *testing.T) {
	// Two live clocks must never share a backing array, even when one
	// of them was recycled.
	p := NewPool()
	a := p.Acquire()
	a.Set(0, 1)
	p.Release(a)
	b := p.Acquire() // recycled a
	c := p.Acquire() // fresh
	b.Set(2, 42)
	if c.Get(2) != 0 {
		t.Fatal("mutating one acquired clock changed another")
	}
	c.Set(2, 7)
	if b.Get(2) != 42 {
		t.Fatal("mutating one acquired clock changed another")
	}
}

func TestPoolReleaseNil(t *testing.T) {
	p := NewPool()
	p.Release(nil) // must not panic
	if len(p.free) != 0 {
		t.Fatal("nil release entered the freelist")
	}
}

func TestCopyIntoReusesCapacity(t *testing.T) {
	src := New()
	src.Set(4, 9)
	dst := New()
	dst.Set(10, 3)
	src.CopyInto(dst)
	if len(dst.ts) != len(src.ts) || dst.Get(4) != 9 || dst.Get(10) != 0 {
		t.Fatalf("CopyInto mismatch: %v", dst)
	}
	// And the copy is deep: mutating dst must not touch src.
	dst.Set(4, 100)
	if src.Get(4) != 9 {
		t.Fatal("CopyInto aliased the source")
	}
}

func TestJoinInto(t *testing.T) {
	a := New()
	a.Set(0, 5)
	a.Set(1, 1)
	b := New()
	b.Set(1, 4)
	a.JoinInto(b)
	if b.Get(0) != 5 || b.Get(1) != 4 {
		t.Fatalf("JoinInto = %v", b)
	}
	if a.Get(0) != 5 || a.Get(1) != 1 {
		t.Fatalf("JoinInto mutated the source: %v", a)
	}
}
