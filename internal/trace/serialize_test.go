package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"gorace/internal/stack"
	"gorace/internal/vclock"
)

func sampleTrace() *Recorder {
	ctx := stack.NewContext(
		stack.Frame{Func: "main", File: "m.go", Line: 1},
		stack.Frame{Func: "worker", File: "w.go", Line: 9},
	)
	return &Recorder{Events: []Event{
		{Seq: 1, G: 0, GName: "main", Op: OpFork, Child: 1},
		{Seq: 2, G: 1, GName: "worker", Op: OpWrite, Addr: 7, Stack: ctx, Label: "x"},
		{Seq: 3, G: 1, Op: OpAcquire, Obj: 3, Kind: KindMutex, Label: "mu"},
		{Seq: 4, G: 1, Op: OpRelease, Obj: 3, Kind: KindMutex, Label: "mu"},
		{Seq: 5, G: 1, Op: OpGoEnd},
	}}
}

// requireSameEvents asserts got replays the same operations as want,
// field for field (on the fields each op carries).
func requireSameEvents(t *testing.T, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("event count %d, want %d", len(got), len(want))
	}
	for i, ev := range got {
		w := want[i]
		if ev.Seq != w.Seq || ev.G != w.G || ev.Op != w.Op ||
			ev.Addr != w.Addr || ev.Obj != w.Obj || ev.Kind != w.Kind ||
			ev.Child != w.Child || ev.Label != w.Label || ev.GName != w.GName {
			t.Fatalf("event %d: got %+v, want %+v", i, ev, w)
		}
		if ev.Stack.Key() != w.Stack.Key() {
			t.Fatalf("event %d: stack %q, want %q", i, ev.Stack.Key(), w.Stack.Key())
		}
		if ev.Stack.Leaf().Line != w.Stack.Leaf().Line {
			t.Fatalf("event %d: line lost in round trip", i)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvents(t, got.Events, orig.Events)
}

func TestLoadedTraceReplaysIdentically(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var a, b []string
	orig.Replay(ListenerFunc(func(ev Event) { a = append(a, ev.String()) }))
	loaded.Replay(ListenerFunc(func(ev Event) { b = append(b, ev.String()) }))
	if len(a) != len(b) {
		t.Fatal("replay lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSaveEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Recorder{}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 0 {
		t.Fatal("phantom events")
	}
}

// TestLoadRejectsNonTraces: anything without the GRTB magic — empty
// input, a version-1 JSON Lines trace, a magic one byte short or one
// byte off — is ErrNotTrace.
func TestLoadRejectsNonTraces(t *testing.T) {
	for _, in := range []string{"", "{", `{"seq":1,"g":0,"op":2,"addr":3}` + "\n", "GRT", "GRTx\x01\x00", "not json\n"} {
		if _, err := Load(strings.NewReader(in)); !errors.Is(err, ErrNotTrace) {
			t.Errorf("Load(%q) = %v, want ErrNotTrace", in, err)
		}
	}
}

func TestLoadGarbageFails(t *testing.T) {
	// Valid magic, truncated body.
	if _, err := Load(strings.NewReader("GRTB")); err == nil {
		t.Fatal("truncated binary header accepted")
	}
}

func TestLoadRejectsUnknownBinaryVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // version byte follows the 4-byte magic
	if _, err := Load(bytes.NewReader(b)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestSaveIsBinary(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), codecMagic[:]) {
		t.Fatalf("binary trace does not start with magic: % x", buf.Bytes()[:8])
	}
}

// Property: arbitrary events survive the save/load round trip, except
// that one whose address or object id is out of the decoder's range
// fails to load with ErrIDRange. Fields an op does not carry (e.g. Addr on a fork) are
// normalized away by the codec, so the generated event only populates
// the fields its op defines — exactly what the runtime emits.
func TestRoundTripProperty(t *testing.T) {
	f := func(seq uint64, g int16, op uint8, addr, obj uint64, kind uint8, label string, fn string, line uint8) bool {
		if g < 0 {
			g = -g
		}
		ev := Event{
			Seq: seq, G: vclock.TID(g), Op: Op(op % 11), Label: label,
			Stack: stack.NewContext(stack.Frame{Func: fn, File: "f.go", Line: int(line)}),
		}
		switch {
		case ev.Op.IsAccess():
			ev.Addr = Addr(addr)
		case ev.Op == OpAcquire || ev.Op == OpRelease:
			ev.Obj = ObjID(obj)
			ev.Kind = ObjKind(kind % 8)
		case ev.Op == OpFork:
			ev.Child = vclock.TID(g) + 1
		}
		var buf bytes.Buffer
		if err := (&Recorder{Events: []Event{ev}}).Save(&buf); err != nil {
			return false
		}
		got, err := Load(&buf)
		// A default-mode address or object id past the decoder's bound
		// must be refused, not decoded.
		tooWide := func(id uint64) bool { return id&StableBit == 0 && id >= MaxDenseID }
		if tooWide(uint64(ev.Addr)) || tooWide(uint64(ev.Obj)) {
			return errors.Is(err, ErrIDRange)
		}
		if err != nil || len(got.Events) != 1 {
			return false
		}
		e := got.Events[0]
		return e.Seq == ev.Seq && e.G == ev.G && e.Op == ev.Op &&
			e.Addr == ev.Addr && e.Obj == ev.Obj && e.Kind == ev.Kind &&
			e.Child == ev.Child && e.Label == ev.Label && e.Stack.Key() == ev.Stack.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
