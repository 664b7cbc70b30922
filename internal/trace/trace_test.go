package trace

import (
	"testing"

	"gorace/internal/stack"
)

func TestOpClassification(t *testing.T) {
	cases := []struct {
		op      Op
		access  bool
		atomic  bool
		isWrite bool
	}{
		{OpRead, true, false, false},
		{OpWrite, true, false, true},
		{OpAtomicLoad, true, true, false},
		{OpAtomicStore, true, true, true},
		{OpAtomicRMW, true, true, true},
		{OpAcquire, false, false, false},
		{OpRelease, false, false, false},
		{OpFork, false, false, false},
		{OpGoEnd, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsAccess() != c.access {
			t.Errorf("%v IsAccess = %v", c.op, c.op.IsAccess())
		}
		if c.op.IsAtomic() != c.atomic {
			t.Errorf("%v IsAtomic = %v", c.op, c.op.IsAtomic())
		}
		if c.op.IsWrite() != c.isWrite {
			t.Errorf("%v IsWrite = %v", c.op, c.op.IsWrite())
		}
	}
}

func TestOpStrings(t *testing.T) {
	for op := OpNone; op <= OpGoLeak; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty String", op)
		}
	}
}

func TestObjKindStrings(t *testing.T) {
	for k := KindNone; k <= KindInternal; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty String", k)
		}
	}
}

func TestRecorderReplayPreservesOrder(t *testing.T) {
	r := &Recorder{}
	for i := 0; i < 5; i++ {
		r.HandleEvent(Event{Seq: uint64(i), Op: OpRead, Addr: Addr(i)})
	}
	var got []uint64
	r.Replay(ListenerFunc(func(ev Event) { got = append(got, ev.Seq) }))
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("replay order broken: %v", got)
		}
	}
}

func TestMultiFansOut(t *testing.T) {
	var a, b int
	m := Multi{
		ListenerFunc(func(Event) { a++ }),
		ListenerFunc(func(Event) { b++ }),
	}
	m.HandleEvent(Event{Op: OpRead})
	if a != 1 || b != 1 {
		t.Fatalf("fan-out counts: %d, %d", a, b)
	}
}

func TestEventString(t *testing.T) {
	ctx := stack.NewContext(stack.Frame{Func: "main", File: "m.go", Line: 3})
	evs := []Event{
		{Seq: 1, G: 0, Op: OpWrite, Addr: 7, Stack: ctx},
		{Seq: 2, G: 1, Op: OpAcquire, Obj: 9, Kind: KindMutex},
		{Seq: 3, G: 0, Op: OpFork, Child: 2},
		{Seq: 4, G: 2, Op: OpGoEnd},
	}
	for _, ev := range evs {
		if ev.String() == "" {
			t.Errorf("empty String for %v", ev.Op)
		}
	}
}

func TestRecorderReuseAndSnapshot(t *testing.T) {
	rec := &Recorder{}
	for i := 0; i < 6; i++ {
		rec.HandleEvent(Event{Seq: uint64(i + 1), Op: OpRead, Addr: Addr(i + 1)})
	}
	snap := rec.Snapshot()
	if len(snap.Events) != 6 {
		t.Fatalf("snapshot has %d events", len(snap.Events))
	}
	// The snapshot must own its storage: rewinding and refilling the
	// recorder cannot disturb it.
	rec.Reset()
	if len(rec.Events) != 0 {
		t.Fatalf("reset recorder holds %d events", len(rec.Events))
	}
	rec.HandleEvent(Event{Seq: 99, Op: OpWrite, Addr: 42})
	if snap.Events[0].Seq != 1 || snap.Events[0].Addr != 1 {
		t.Fatal("snapshot aliased the reused recorder")
	}
	if len(rec.Events) != 1 || rec.Events[0].Seq != 99 {
		t.Fatalf("recorder after reuse = %v", rec.Events)
	}
}
