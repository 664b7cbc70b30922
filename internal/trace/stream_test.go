package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"gorace/internal/stack"
	"gorace/internal/vclock"
)

// TestEncoderDecoderRoundTrip pins the streamed (count-unknown) form:
// events pushed through Encoder one at a time come back identical
// through Decoder, and the decoder reports a clean EOF at the
// boundary.
func TestEncoderDecoderRoundTrip(t *testing.T) {
	want := sampleTrace()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, ev := range want.Events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dec.Count(); ok {
		t.Fatal("streamed trace should not advertise a count")
	}
	var got []Event
	for {
		ev, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("event %d: %v", len(got), err)
		}
		got = append(got, ev)
	}
	requireSameEvents(t, got, want.Events)
	if dec.events != uint64(len(want.Events)) {
		t.Fatalf("decoded %d events, want %d", dec.events, len(want.Events))
	}
	// Sticky EOF: once drained, Next keeps reporting end of stream.
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("Next after EOF = %v, want io.EOF", err)
	}
}

// TestDecoderMatchesLoadOnSavedTrace pins Load's delegation: decoding
// a counted (Recorder.Save) trace incrementally yields exactly what
// Load returns, and the header count is surfaced as a hint.
func TestDecoderMatchesLoadOnSavedTrace(t *testing.T) {
	want := sampleTrace()
	var buf bytes.Buffer
	if err := want.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n, ok := dec.Count()
	if !ok || n != uint64(len(want.Events)) {
		t.Fatalf("Count() = %d,%t, want %d,true", n, ok, len(want.Events))
	}
	var got []Event
	for {
		ev, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	requireSameEvents(t, got, want.Events)
}

// TestDecoderTruncation verifies every proper prefix of a binary trace
// fails with an error — never a panic, never a silently short result
// on a counted stream.
func TestDecoderTruncation(t *testing.T) {
	want := sampleTrace()
	var buf bytes.Buffer
	if err := want.Save(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := len(whole) - 1; cut > len(codecMagic); cut-- {
		dec, err := NewDecoder(bytes.NewReader(whole[:cut]))
		if err != nil {
			continue // truncated inside the header: also a clean error
		}
		decoded := 0
		for {
			_, err := dec.Next()
			if err == io.EOF {
				t.Fatalf("cut at %d/%d: decoder reported clean EOF after %d events on a counted stream",
					cut, len(whole), decoded)
			}
			if err != nil {
				break // truncation surfaced as an error: correct
			}
			decoded++
		}
	}
}

// TestWindowRecorder pins the ring semantics: per-goroutine retention,
// oldest-first overwrite, and a Seq-ordered merged snapshot.
func TestWindowRecorder(t *testing.T) {
	w := NewWindowRecorder(3)
	for i := 0; i < 10; i++ {
		w.HandleEvent(Event{Seq: uint64(i + 1), G: 1, Op: OpRead, Addr: 7})
	}
	w.HandleEvent(Event{Seq: 100, G: 2, Op: OpWrite, Addr: 7})
	if got := w.Retained(); got != 4 {
		t.Fatalf("Retained() = %d, want 4 (3 for g1 + 1 for g2)", got)
	}
	evs := w.Events()
	wantSeqs := []uint64{8, 9, 10, 100}
	if len(evs) != len(wantSeqs) {
		t.Fatalf("Events() returned %d events, want %d", len(evs), len(wantSeqs))
	}
	for i, ev := range evs {
		if ev.Seq != wantSeqs[i] {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, wantSeqs[i])
		}
	}
	w.Reset()
	if got := w.Retained(); got != 0 {
		t.Fatalf("Retained() after Reset = %d, want 0", got)
	}
}

// TestWindowEventsMerges checks the k-way merge against a sort of
// everything retained, over many goroutines whose rings have wrapped
// at different points.
func TestWindowEventsMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewWindowRecorder(5)
	var all []Event
	for seq := uint64(1); seq <= 400; seq++ {
		ev := Event{Seq: seq, G: vclock.TID(rng.Intn(12)), Op: OpRead}
		w.HandleEvent(ev)
		all = append(all, ev)
	}
	var want []Event
	kept := make(map[vclock.TID]int)
	for i := len(all) - 1; i >= 0; i-- {
		if kept[all[i].G] < w.perG {
			kept[all[i].G]++
			want = append([]Event{all[i]}, want...)
		}
	}
	if got := w.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Events() = %v\nwant %v", got, want)
	}
}

// TestWindowEachReadsRingsInPlace: Each visits every retained event
// once, each goroutine's oldest first — exactly the per-goroutine
// subsequences of Events — over rings wrapped at different points.
func TestWindowEachReadsRingsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := NewWindowRecorder(5)
	for seq := uint64(1); seq <= 400; seq++ {
		w.HandleEvent(Event{Seq: seq, G: vclock.TID(rng.Intn(12)), Op: OpRead})
	}
	want := make(map[vclock.TID][]uint64)
	for _, ev := range w.Events() {
		want[ev.G] = append(want[ev.G], ev.Seq)
	}
	got := make(map[vclock.TID][]uint64)
	w.Each(func(ev *Event) { got[ev.G] = append(got[ev.G], ev.Seq) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Each per goroutine = %v\nwant %v", got, want)
	}
}

// TestWindowRingsStopAtPerG: a ring grows by doubling to exactly perG
// events and no further, whatever append would have overshot to.
func TestWindowRingsStopAtPerG(t *testing.T) {
	for _, perG := range []int{1, 8, 100, 1024} {
		w := NewWindowRecorder(perG)
		for seq := uint64(1); seq <= uint64(3*perG); seq++ {
			w.HandleEvent(Event{Seq: seq, G: 1, Op: OpRead})
			if c := cap(w.gs[1].buf); c > perG {
				t.Fatalf("perG %d: ring capacity %d after %d events", perG, c, seq)
			}
		}
		if c := cap(w.gs[1].buf); c != perG {
			t.Fatalf("perG %d: full ring capacity %d", perG, c)
		}
	}
}

// TestDecodeLongNamesCostInputBytes: a stream can define one long
// name once and then reference it from every frame of every stack for
// a byte or two each. Decoding must cost memory in proportion to the
// input, not to the names' length times the references to them.
func TestDecodeLongNamesCostInputBytes(t *testing.T) {
	long := strings.Repeat("f", 64<<10)
	var in bytes.Buffer
	enc := NewEncoder(&in)
	for i := 0; i < 8; i++ {
		frames := make([]stack.Frame, 16)
		for j := range frames {
			frames[j] = stack.Frame{Func: long, File: long, Line: i}
		}
		enc.Encode(Event{Seq: uint64(i + 1), Op: OpRead, Addr: 1, Stack: stack.NewContext(frames...)})
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dec, err := NewDecoder(bytes.NewReader(in.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; ; n++ {
		if _, err := dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n != 8 {
		t.Fatalf("decoded %d events, want 8", n)
	}
	// Each stack names 2 MiB of function and file text.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("decoding a %d-byte stream allocated %d bytes, want at most 1 MiB", in.Len(), alloc)
	}
}

// FuzzStreamDecode feeds the streaming decoder truncated, corrupt, and
// hostile inputs: whatever the bytes, decoding must error cleanly —
// never panic and never allocate proportionally to an
// attacker-claimed length — and input without the GRTB magic must be
// ErrNotTrace. Seeded from the golden binary trace so the fuzzer
// starts from a structurally valid stream; the JSON Lines seed is one
// of the bad-magic cases.
func FuzzStreamDecode(f *testing.F) {
	want := sampleTrace()
	var counted bytes.Buffer
	if err := want.Save(&counted); err != nil {
		f.Fatal(err)
	}
	f.Add(counted.Bytes())
	var streamed bytes.Buffer
	enc := NewEncoder(&streamed)
	for _, ev := range want.Events {
		enc.Encode(ev)
	}
	enc.Flush()
	f.Add(streamed.Bytes())
	f.Add([]byte("GRTB"))
	f.Add([]byte{})
	f.Add([]byte(`{"seq":1,"g":0,"op":2,"addr":3}` + "\n"))
	// One write whose goroutine id, or default-mode address, would
	// size a detector's dense tables from its raw value.
	for _, ev := range wideIDEvents() {
		f.Add(encodeOne(f, ev))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The input is decoded whole and one byte per read; both must
		// give the same events and the same error.
		dec, err := NewDecoder(bytes.NewReader(data))
		slow, slowErr := NewDecoder(iotest.OneByteReader(bytes.NewReader(data)))
		if bad := !bytes.HasPrefix(data, codecMagic[:]); bad != errors.Is(err, ErrNotTrace) {
			t.Fatalf("input % x: NewDecoder error %v", data[:min(len(data), 8)], err)
		}
		if fmt.Sprint(err) != fmt.Sprint(slowErr) {
			t.Fatalf("NewDecoder: whole %v, one byte at a time %v", err, slowErr)
		}
		if err != nil {
			return
		}
		// Cap decoded events to bound fuzz-iteration time; hostile
		// counts must not translate into allocations regardless.
		for i := 0; i < 1<<16; i++ {
			ev, err := dec.Next()
			slowEv, slowErr := slow.Next()
			if fmt.Sprint(err) != fmt.Sprint(slowErr) || !reflect.DeepEqual(ev, slowEv) {
				t.Fatalf("event %d: whole %v, %v; one byte at a time %v, %v", i, ev, err, slowEv, slowErr)
			}
			if err != nil {
				return
			}
			if err := checkBounds(ev); err != nil {
				t.Fatalf("event %d decoded out of range: %v", i, err)
			}
		}
	})
}

// wideIDEvents are single events at or past the decoder's identity
// bounds.
func wideIDEvents() []Event {
	return []Event{
		{Seq: 1, G: 1 << 30, Op: OpWrite, Addr: 1},
		{Seq: 1, G: -1, Op: OpWrite, Addr: 1},
		{Seq: 1, G: MaxGoroutines, Op: OpRead, Addr: 1},
		{Seq: 1, Op: OpFork, Child: 1 << 30},
		{Seq: 1, Op: OpWrite, Addr: 1 << 28},
		{Seq: 1, Op: OpWrite, Addr: MaxDenseID},
		{Seq: 1, Op: OpAcquire, Obj: 1 << 28, Kind: KindMutex},
	}
}

// encodeOne renders ev as a one-event streamed trace.
func encodeOne(tb testing.TB, ev Event) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Encode(ev); err != nil {
		tb.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkBounds is the decoder's identity contract restated: goroutine
// ids below MaxGoroutines, default-mode ids below MaxDenseID.
func checkBounds(ev Event) error {
	wide := func(id uint64) bool { return id&StableBit == 0 && id >= MaxDenseID }
	switch {
	case ev.G < 0 || ev.G >= MaxGoroutines, ev.Child < 0 || ev.Child >= MaxGoroutines:
		return fmt.Errorf("goroutine %d, child %d", ev.G, ev.Child)
	case wide(uint64(ev.Addr)), wide(uint64(ev.Obj)):
		return fmt.Errorf("address %#x, object %#x", uint64(ev.Addr), uint64(ev.Obj))
	}
	return nil
}

// TestDecodeRejectsWideIDs: an event whose goroutine id or default-mode
// identity is at or past its bound is a decode error (ErrIDRange),
// while the ids just below the bounds, and stable identities of any
// value, decode.
func TestDecodeRejectsWideIDs(t *testing.T) {
	for _, ev := range wideIDEvents() {
		dec, err := NewDecoder(bytes.NewReader(encodeOne(t, ev)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Next(); !errors.Is(err, ErrIDRange) {
			t.Errorf("%+v: decode error %v, want ErrIDRange", ev, err)
		}
	}
	for _, ev := range []Event{
		{Seq: 1, G: MaxGoroutines - 1, Op: OpWrite, Addr: MaxDenseID - 1},
		{Seq: 1, Op: OpFork, Child: MaxGoroutines - 1},
		{Seq: 1, Op: OpAcquire, Obj: MaxDenseID - 1, Kind: KindMutex},
		{Seq: 1, Op: OpWrite, Addr: Addr(StableBit | 1<<62)},
		{Seq: 1, Op: OpRelease, Obj: ObjID(StableBit | 1<<40), Kind: KindMutex},
	} {
		dec, err := NewDecoder(bytes.NewReader(encodeOne(t, ev)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Next()
		if err != nil || got.G != ev.G || got.Child != ev.Child || got.Addr != ev.Addr || got.Obj != ev.Obj {
			t.Errorf("%+v: decoded %+v, %v", ev, got, err)
		}
	}
}

// TestDecodeWidestGoroutineBounded: the decoder's per-goroutine state
// is a slice indexed by G, so one event from the widest legal
// goroutine sizes it to MaxGoroutines entries. That must stay a few
// MiB, not grow past the bound.
func TestDecodeWidestGoroutineBounded(t *testing.T) {
	in := encodeOne(t, Event{Seq: 1, G: MaxGoroutines - 1, Op: OpWrite, Addr: 1})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dec, err := NewDecoder(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := dec.Next()
	runtime.ReadMemStats(&after)
	if err != nil || ev.G != MaxGoroutines-1 {
		t.Fatalf("decoded %+v, %v", ev, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Fatalf("decoding one event of goroutine %d allocated %d bytes, want under 4 MiB", ev.G, alloc)
	}
	if len(dec.gs) != MaxGoroutines {
		t.Fatalf("decoder holds %d goroutine states, want %d", len(dec.gs), MaxGoroutines)
	}
}

// TestNextIntoOverwritesEveryField: decoding into a slot that held a
// fork or an acquire leaves none of its fields behind, and gives the
// event Next gives.
func TestNextIntoOverwritesEveryField(t *testing.T) {
	access := Event{Seq: 9, G: 2, GName: "w", Op: OpRead, Addr: 5, Label: "x",
		Stack: stack.NewContext(stack.Frame{Func: "f", File: "f.go", Line: 3})}
	data := encodeOne(t, access)
	want, err := mustDecoder(t, data).Next()
	if err != nil {
		t.Fatal(err)
	}
	for _, stale := range []Event{
		{Seq: 1, G: 7, GName: "old", Op: OpFork, Child: 8, Label: "go"},
		{Seq: 1, G: 7, Op: OpAcquire, Obj: 3, Kind: KindMutex, Label: "mu"},
	} {
		got := stale
		if err := mustDecoder(t, data).NextInto(&got); err != nil {
			t.Fatal(err)
		}
		if got.Child != 0 || got.Obj != NoObj || got.Kind != KindNone {
			t.Fatalf("after a %s: Child %d, Obj %d, Kind %s left behind", stale.Op, got.Child, got.Obj, got.Kind)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after a %s: NextInto gave %+v, Next %+v", stale.Op, got, want)
		}
	}
}

func mustDecoder(t *testing.T, data []byte) *Decoder {
	t.Helper()
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestDecoderDoesNotWaitForAFullBuffer: events already written to a
// live stream decode at once, although far less than the decoder's
// buffer has arrived and the writer has not closed the stream.
func TestDecoderDoesNotWaitForAFullBuffer(t *testing.T) {
	const n = 20
	pr, pw := io.Pipe()
	stall := make(chan struct{})
	defer close(stall)
	go func() {
		enc := NewEncoder(pw)
		for i := 0; i < n; i++ {
			enc.Encode(Event{Seq: uint64(i + 1), G: 1, Op: OpWrite, Addr: Addr(i), Label: "x"})
		}
		enc.Flush()
		<-stall
		pw.Close()
	}()
	got := make(chan error, 1)
	go func() {
		dec, err := NewDecoder(pr)
		for i := 0; i < n && err == nil; i++ {
			_, err = dec.Next()
		}
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("decoder still waiting after 10 s for %d events the writer had written", n)
	}
}
