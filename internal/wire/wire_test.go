package wire

import (
	"bufio"
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gorace/internal/stack"
)

var magic = [4]byte{'T', 'E', 'S', 'T'}

func newDecoder(src Source) *Decoder {
	var d Decoder
	d.Reset(src)
	return &d
}

// TestRoundTrip: every primitive decodes to what was encoded, through
// both kinds of source, and a repeated string is a one-byte reference.
func TestRoundTrip(t *testing.T) {
	frames := []stack.Frame{{Func: "main", File: "m.go", Line: 3}, {Func: "f", File: "m.go", Line: -1}}
	var e Encoder
	e.Header(magic, 7)
	e.Byte(0xab)
	e.Uvarint(1 << 40)
	e.Varint(-5)
	e.String("hello")
	before := len(e.Bytes())
	e.String("hello")
	if n := len(e.Bytes()) - before; n != 1 {
		t.Fatalf("repeated string took %d bytes, want 1", n)
	}
	e.String("")
	e.Strings([]string{"a", "hello", ""})
	e.Strings(nil)
	e.Uvarint(uint64(len(frames)))
	e.Frames(frames)

	for name, src := range map[string]Source{
		"bytes":  bytes.NewReader(e.Bytes()),
		"stream": bufio.NewReader(bytes.NewReader(e.Bytes())),
	} {
		d := newDecoder(src)
		if err := d.Header(magic, 7); err != nil {
			t.Fatalf("%s: header: %v", name, err)
		}
		b, u, v := d.Byte(), d.Uvarint(), d.Varint()
		s1, s2, s3 := d.String(), d.String(), d.String()
		list, empty := d.Strings(), d.Strings()
		got := d.Frames(nil, d.Uvarint())
		if err := d.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b != 0xab || u != 1<<40 || v != -5 || s1 != "hello" || s2 != "hello" || s3 != "" ||
			!reflect.DeepEqual(list, []string{"a", "hello", ""}) || empty != nil ||
			!reflect.DeepEqual(got, frames) {
			t.Fatalf("%s: decoded %x %d %d %q %q %q %q %v %v", name, b, u, v, s1, s2, s3, list, empty, got)
		}
		if d.Byte(); d.Err() != ErrTruncated {
			t.Fatalf("%s: read past end = %v, want ErrTruncated", name, d.Err())
		}
		// The error is sticky: later reads return zero values.
		if d.Uvarint() != 0 || d.String() != "" || d.Err() != ErrTruncated {
			t.Fatalf("%s: read after an error was not a no-op", name)
		}
	}
}

// TestResetStartsFreshTables: Reset empties both string tables, so
// consecutive self-contained units each define their strings again.
func TestResetStartsFreshTables(t *testing.T) {
	var e Encoder
	e.String("x")
	first := append([]byte(nil), e.Bytes()...)
	e.Reset()
	e.String("x")
	if !bytes.Equal(e.Bytes(), first) {
		t.Fatalf("after Reset: % x, want % x", e.Bytes(), first)
	}
	var d Decoder
	for i := 0; i < 2; i++ {
		d.Reset(bytes.NewReader(first))
		if s := d.String(); d.Err() != nil || s != "x" {
			t.Fatalf("unit %d: %q, %v", i, s, d.Err())
		}
	}
}

func TestHeaderRejects(t *testing.T) {
	for _, in := range []string{"", "T", "TES", "TESX\x01", "{\"a\":1}"} {
		if err := newDecoder(strings.NewReader(in)).Header(magic, 1); err != ErrBadMagic {
			t.Errorf("Header(%q) = %v, want ErrBadMagic", in, err)
		}
	}
	if err := newDecoder(strings.NewReader("TEST")).Header(magic, 1); err != ErrTruncated {
		t.Errorf("header without version = %v, want ErrTruncated", err)
	}
	err := newDecoder(strings.NewReader("TEST\x63")).Header(magic, 1)
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("version 99 = %v, want a version error", err)
	}
}

func TestStringBounds(t *testing.T) {
	var e Encoder
	e.Uvarint(1) // a new entry ...
	e.Uvarint(MaxStringLen + 1)
	if d := newDecoder(bytes.NewReader(e.Bytes())); d.String() != "" || d.Err() == nil {
		t.Fatal("string over MaxStringLen accepted")
	}
	e = Encoder{}
	e.Uvarint(5) // ... must be the next index, not one past it
	if d := newDecoder(bytes.NewReader(e.Bytes())); d.String() != "" || d.Err() == nil {
		t.Fatal("out-of-range string ref accepted")
	}
	if d := newDecoder(bytes.NewReader(nil)); d.Frames(nil, MaxStackDepth+1) != nil || d.Err() == nil {
		t.Fatal("stack over MaxStackDepth accepted")
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileCountsCostOnlyBytesPresent: a count, depth or length that
// claims far more than the input holds costs memory for what is
// present, not for what is claimed.
func TestHostileCountsCostOnlyBytesPresent(t *testing.T) {
	cases := []struct {
		name   string
		encode func(*Encoder)
		decode func(*Decoder)
	}{
		{"strings count", func(e *Encoder) {
			e.Uvarint(1 << 40)
			e.String("a")
			e.String("b")
		}, func(d *Decoder) { d.Strings() }},
		{"frames depth", func(e *Encoder) {
			e.Frames([]stack.Frame{{Func: "f", File: "f.go", Line: 1}})
		}, func(d *Decoder) { d.Frames(nil, MaxStackDepth) }},
		{"string length", func(e *Encoder) {
			e.Uvarint(1)
			e.Uvarint(MaxStringLen)
			e.Byte('x')
		}, func(d *Decoder) { _ = d.String() }},
	}
	for _, tc := range cases {
		var e Encoder
		tc.encode(&e)
		for name, src := range map[string]func() Source{
			"bytes":  func() Source { return bytes.NewReader(e.Bytes()) },
			"stream": func() Source { return bufio.NewReader(bytes.NewReader(e.Bytes())) },
		} {
			d := newDecoder(src())
			n := allocated(func() { tc.decode(d) })
			if d.Err() != ErrTruncated {
				t.Errorf("%s/%s: %v, want ErrTruncated", tc.name, name, d.Err())
			}
			// The ceiling is one read chunk plus small change; the claims
			// above are worth 16 TiB, 2.5 MiB and 1 MiB.
			if n > readChunk+8<<10 {
				t.Errorf("%s/%s: allocated %d KiB for a %d-byte input", tc.name, name, n>>10, len(e.Bytes()))
			}
		}
	}
}
