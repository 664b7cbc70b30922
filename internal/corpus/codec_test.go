package corpus

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gorace/internal/stack"
	"gorace/internal/trace"
	"gorace/internal/wire"
)

// hostilePayload returns a record payload that is well formed up to
// its first access's lock list, where tail takes over.
func hostilePayload(tail func(e *wire.Encoder)) []byte {
	var e recEncoder
	e.Reset()
	e.Byte(kindRecord)
	e.String("svc/Test/hash") // key
	e.String("svc/Test")      // unit
	e.Strings([]string{"run-1"})
	e.Uvarint(1)       // count
	e.String("")       // category
	e.Strings(nil)     // labels
	e.String("epoch")  // detector
	e.String("")       // trace path
	e.Uvarint(0)       // race seq
	e.String("")       // race detector
	e.Uvarint(1)       // first access: G
	e.String("worker") // goroutine name
	e.Byte(byte(trace.OpWrite))
	e.Uvarint(42) // addr
	e.Uvarint(7)  // seq
	e.String("")  // label
	e.Byte(0)     // atomic
	tail(&e.Encoder)
	return append([]byte(nil), e.Bytes()...)
}

// TestHostileCountsCostBytesPresent: a CRC-valid frame whose lock
// count or stack depth claims more than the frame holds fails as
// truncated, having allocated in proportion to the frame — not to the
// claim (a lock list sized from the count, a stack from the depth).
func TestHostileCountsCostBytesPresent(t *testing.T) {
	long := strings.Repeat("m", 200_000)
	cases := []struct {
		name string
		tail func(e *wire.Encoder)
	}{
		// The count fits in the frame's remaining bytes, because one
		// long lock name fills them.
		{"lock count", func(e *wire.Encoder) {
			e.Uvarint(200_000)
			e.String(long)
		}},
		{"stack depth", func(e *wire.Encoder) {
			e.Strings(nil)
			e.Uvarint(wire.MaxStackDepth)
			e.Frames([]stack.Frame{{Func: "f", File: "f.go", Line: 1}})
		}},
	}
	for _, tc := range cases {
		payload := hostilePayload(tc.tail)
		var fd frameDecoder
		var x Export
		var err error
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err = fd.decodePayload(payload, &x)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("%s: %v, want a truncated record", tc.name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 3*uint64(len(payload))+64<<10 {
			t.Errorf("%s: allocated %d KiB decoding a %d KiB frame", tc.name, n>>10, len(payload)>>10)
		}
	}
}

// frameEnds returns the offset at which each frame of a store or delta
// ends, given the offset of the first frame.
func frameEnds(t *testing.T, data []byte, off int) []int {
	t.Helper()
	var ends []int
	for off < len(data) {
		_, next, err := nextFrame(data, off)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, next)
		off = next
	}
	return ends
}

// TestOpenRecoversEveryTruncation cuts golden.grcs at every byte past
// its header, as a crash mid-append would. Open must succeed, hold
// exactly the frames that were whole — the runs, then the records, in
// append order — and leave the file truncated to them.
func TestOpenRecoversEveryTruncation(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden.grcs"))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenExport()
	const header = len("GRCS") + 1
	ends := frameEnds(t, data, header)
	if len(ends) != len(want.Runs)+len(want.Records) {
		t.Fatalf("golden.grcs has %d frames, sample has %d", len(ends), len(want.Runs)+len(want.Records))
	}
	dir := t.TempDir()
	for cut := header; cut < len(data); cut++ {
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		clean := header
		if whole > 0 {
			clean = ends[whole-1]
		}
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.grcs", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		runs, recs := s.Runs(), s.Records()
		s.Close()
		nRuns := min(whole, len(want.Runs))
		if !reflect.DeepEqual(runs, want.Runs[:nRuns]) && !(nRuns == 0 && runs == nil) {
			t.Fatalf("cut at %d: runs %+v, want the first %d", cut, runs, nRuns)
		}
		nRecs := whole - nRuns
		if len(recs) != nRecs || (nRecs > 0 && !reflect.DeepEqual(recs, want.Records[:nRecs])) {
			t.Fatalf("cut at %d: %d records, want the first %d", cut, len(recs), nRecs)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(clean) {
			t.Fatalf("cut at %d: file left at %v bytes, want %d", cut, fi.Size(), clean)
		}
	}
}

// goldenSeeds adds the golden file and a few hostile variants of it.
func goldenSeeds(f *testing.F, name string) {
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:5])
	f.Add([]byte{})
	f.Add([]byte(`{"key":"x"}`))
}

// FuzzStoreOpen opens arbitrary bytes as a store file. Open must never
// panic; when it succeeds, the folded state it holds, written out in
// compacted form and opened again, must come back unchanged.
func FuzzStoreOpen(f *testing.F) {
	goldenSeeds(f, "golden.grcs")
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := openBytes(t, data)
		if err != nil {
			return
		}
		defer s.Close()
		var folded bytes.Buffer
		if err := s.writeFolded(&folded); err != nil {
			t.Fatal(err)
		}
		again, err := openBytes(t, folded.Bytes())
		if err != nil {
			t.Fatalf("reopen folded state: %v", err)
		}
		defer again.Close()
		if got, want := again.Runs(), s.Runs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("runs changed across a round trip:\n got %+v\nwant %+v", got, want)
		}
		if got, want := again.Records(), s.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("records changed across a round trip:\n got %+v\nwant %+v", got, want)
		}
	})
}

// FuzzReadDelta decodes arbitrary bytes as a delta. ReadDelta must
// never panic; when it succeeds, writing the export and reading it back
// must give the same export.
func FuzzReadDelta(f *testing.F) {
	goldenSeeds(f, "golden.grcd")
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := ReadDelta(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteDelta(&buf, x); err != nil {
			t.Fatal(err)
		}
		got, err := ReadDelta(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if !reflect.DeepEqual(got, x) {
			t.Fatalf("delta changed across a round trip:\n got %+v\nwant %+v", got, x)
		}
	})
}
