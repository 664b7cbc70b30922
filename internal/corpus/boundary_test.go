package corpus

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"

	"gorace/internal/wire"
)

// wirePaths are the ways a unit reaches the wire decoder: in place as
// a frame, and as a stream read whole, in halves and one byte per read.
var wirePaths = []struct {
	name  string
	reset func(*wire.Decoder, []byte)
}{
	{"frame", func(d *wire.Decoder, b []byte) { d.ResetFrame(b) }},
	{"whole", func(d *wire.Decoder, b []byte) { d.Reset(bytes.NewReader(b)) }},
	{"half", func(d *wire.Decoder, b []byte) { d.Reset(iotest.HalfReader(bytes.NewReader(b))) }},
	{"one-byte", func(d *wire.Decoder, b []byte) { d.Reset(iotest.OneByteReader(bytes.NewReader(b))) }},
}

// goldenUnits splits a golden store or delta into its wire-encoded
// units: the header (with a delta's counts), then each frame payload.
func goldenUnits(t *testing.T, data []byte, magic [4]byte, version uint64) [][]byte {
	t.Helper()
	var fd frameDecoder
	if err := fd.header(data, magic, version); err != nil {
		t.Fatal(err)
	}
	if magic == deltaMagic {
		fd.d.Uvarint()
		fd.d.Uvarint()
	}
	off := len(data) - fd.d.Buffered()
	units := [][]byte{data[:off]}
	for off < len(data) {
		payload, next, err := nextFrame(data, off)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, payload)
		off = next
	}
	return units
}

// decodeUnit decodes unit i of a golden file from wherever fd.d was
// reset to, and returns what it decoded and the error text.
func decodeUnit(fd *frameDecoder, i int, magic [4]byte, version uint64) (any, string) {
	if i == 0 {
		fd.d.Header(magic, version)
		var counts [2]uint64
		if magic == deltaMagic {
			counts = [2]uint64{fd.d.Uvarint(), fd.d.Uvarint()}
		}
		return counts, fmt.Sprint(fd.d.Err())
	}
	var x Export
	err := fd.payload(&x)
	return x, fmt.Sprint(err)
}

// TestWireBufferBoundaries: each unit of the golden store and delta,
// and every prefix of it, decodes to the same records and the same
// error whether the wire decoder reads it in place or as a stream
// whose bytes arrive whole, in halves or one at a time.
func TestWireBufferBoundaries(t *testing.T) {
	for _, f := range []struct {
		name    string
		magic   [4]byte
		version uint64
	}{{"golden.grcs", storeMagic, storeVersion}, {"golden.grcd", deltaMagic, deltaVersion}} {
		data, err := os.ReadFile(filepath.Join("testdata", f.name))
		if err != nil {
			t.Fatal(err)
		}
		units := goldenUnits(t, data, f.magic, f.version)
		fds := make([]frameDecoder, len(wirePaths))
		for i, unit := range units {
			for cut := len(unit); cut >= 0; cut-- {
				var want any
				var wantErr string
				for p, path := range wirePaths {
					path.reset(&fds[p].d, unit[:cut])
					got, gotErr := decodeUnit(&fds[p], i, f.magic, f.version)
					if p == 0 {
						want, wantErr = got, gotErr
						if cut == len(unit) && wantErr != "<nil>" {
							t.Fatalf("%s unit %d: %s", f.name, i, wantErr)
						}
						continue
					}
					if gotErr != wantErr || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s unit %d cut at %d/%d: %s path gave %v, %s; frame path %v, %s",
							f.name, i, cut, len(unit), path.name, got, gotErr, want, wantErr)
					}
				}
			}
		}
	}
}
