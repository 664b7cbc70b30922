package trace_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"

	"gorace/internal/stream"
	"gorace/internal/trace"
)

// readers are the ways a stream reaches the decoder: whole, in halves
// of each read the decoder asks for, and one byte per read. Every
// varint the decoder reads straddles its buffer's end one byte at a
// time, and some do at the halves' boundaries.
var readers = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"whole", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
}

// decodeAll decodes r to its end and returns the events and the error
// text that ended decoding ("EOF" at a clean end).
func decodeAll(r io.Reader) ([]trace.Event, string) {
	dec, err := trace.NewDecoder(r)
	if err != nil {
		return nil, err.Error()
	}
	var evs []trace.Event
	for {
		ev, err := dec.Next()
		if err != nil {
			return evs, err.Error()
		}
		evs = append(evs, ev)
	}
}

// grtbFixtures are the binary traces the boundary test decodes: the
// sample trace counted and streamed, the golden file, and a synthetic
// stream longer than the decoder's 4 KiB buffer.
func grtbFixtures(t *testing.T) map[string][]byte {
	t.Helper()
	sample := trace.SampleTrace()
	var counted, streamed, synth bytes.Buffer
	if err := sample.Save(&counted); err != nil {
		t.Fatal(err)
	}
	enc := trace.NewEncoder(&streamed)
	for _, ev := range sample.Events {
		enc.Encode(ev)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	spec := stream.SynthSpec{Events: 500, Goroutines: 4, Addrs: 1 << 12, Planted: 2, Gap: 64, Seed: 7}
	if err := spec.Write(&synth); err != nil {
		t.Fatal(err)
	}
	if synth.Len() <= 4<<10 {
		t.Fatalf("synthetic stream is %d bytes; it must exceed the decoder's 4 KiB buffer", synth.Len())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"sample-counted": counted.Bytes(), "sample-streamed": streamed.Bytes(),
		"golden": golden, "synth": synth.Bytes(),
	}
}

// TestDecodeBufferBoundaries: however the stream's bytes arrive, the
// decoder yields the same events and ends with the same error, for
// every fixture and for every prefix of it.
func TestDecodeBufferBoundaries(t *testing.T) {
	for name, data := range grtbFixtures(t) {
		for cut := len(data); cut >= 0; cut-- {
			want, wantErr := decodeAll(readers[0].wrap(data[:cut]))
			if cut == len(data) && (wantErr != "EOF" || len(want) == 0) {
				t.Fatalf("%s: whole input decoded %d events, ending in %q", name, len(want), wantErr)
			}
			for _, r := range readers[1:] {
				got, gotErr := decodeAll(r.wrap(data[:cut]))
				if gotErr != wantErr {
					t.Fatalf("%s cut at %d/%d: %s reader ended in %q, whole in %q", name, cut, len(data), r.name, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s cut at %d/%d: %s reader decoded %d events unlike the whole reader's %d", name, cut, len(data), r.name, len(got), len(want))
				}
			}
		}
	}
}
