// Package wire is the one binary codec under every format that crosses
// a process boundary: the GRTB trace stream (internal/trace), the GRCS
// corpus store and the GRCD corpus delta (internal/corpus). All three
// open with a 4-byte magic and a uvarint version, then carry varint
// integers and strings interned in a table that grows as it is read.
// This package owns those primitives and the bounds on them, so a
// hostile input is rejected the same way whichever format carries it.
// The layouts built on top are in docs/FORMATS.md.
//
// Strings are interned: a reference is a uvarint index into the table,
// whose entry 0 is always "". An index equal to the table's size
// introduces a new entry, written as a uvarint byte length and the
// bytes, and appends it. The encoder and the decoder grow their tables
// in step, so each string crosses the wire once per table.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"gorace/internal/stack"
)

// MaxStringLen bounds one interned string. Real tables hold function
// names, file names, labels and run ids; anything longer is corruption.
const MaxStringLen = 1 << 20

// MaxStackDepth bounds the frames of one encoded call stack.
const MaxStackDepth = 1 << 16

// readChunk is the most a Decoder allocates for a string before any
// of its bytes are read.
const readChunk = 64 << 10

// ErrTruncated reports input that ended inside a value.
var ErrTruncated = errors.New("wire: unexpected end of input")

// ErrBadMagic reports input that does not open with the expected
// 4-byte magic, including input shorter than the magic.
var ErrBadMagic = errors.New("wire: bad magic")

// Encoder appends the codec's primitives to an in-memory buffer. The
// zero value is ready to use, with an empty buffer and a string table
// holding only "".
type Encoder struct {
	buf     []byte
	strings map[string]uint64
}

// Bytes returns the bytes encoded since the last Reset or ResetBytes.
// The slice is reused by later encoding.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset empties the buffer and the string table, starting a new
// self-contained unit such as one corpus frame.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	clear(e.strings)
}

// ResetBytes empties the buffer but keeps the string table, for a
// stream whose table spans many writes.
func (e *Encoder) ResetBytes() { e.buf = e.buf[:0] }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Uvarint appends v as an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends v as a zigzag signed varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Header appends a format's magic and version.
func (e *Encoder) Header(magic [4]byte, version uint64) {
	e.buf = append(e.buf, magic[:]...)
	e.Uvarint(version)
}

// String appends an interned reference to s, defining s in the table
// on first use.
func (e *Encoder) String(s string) {
	if s == "" {
		e.Uvarint(0)
		return
	}
	if idx, ok := e.strings[s]; ok {
		e.Uvarint(idx)
		return
	}
	if e.strings == nil {
		e.strings = make(map[string]uint64)
	}
	idx := uint64(len(e.strings)) + 1 // entry 0 is ""
	e.strings[s] = idx
	e.Uvarint(idx)
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Strings appends a uvarint count and then each string.
func (e *Encoder) Strings(ss []string) {
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// Frames appends each frame as its function, its file and its zigzag
// line. It writes no count: the caller writes the depth, because the
// trace and corpus layouts encode it differently.
func (e *Encoder) Frames(frames []stack.Frame) {
	for _, f := range frames {
		e.String(f.Func)
		e.String(f.File)
		e.Varint(int64(f.Line))
	}
}

// Source is what a Decoder reads: a *bufio.Reader over a stream, or a
// *bytes.Reader over a frame already in memory.
type Source interface {
	io.Reader
	io.ByteReader
}

// Decoder reads the codec's primitives from a Source and enforces its
// bounds. Its error is sticky: the first failure is kept in Err, and
// every read after it returns a zero value without touching the
// source, so a caller decodes a whole structure and checks Err once.
// An end of input inside a value is ErrTruncated; other read errors
// are kept unchanged. Reset points a Decoder at a source, its zero
// value included; reusing one Decoder across sources keeps its scratch
// buffers, which is what makes decoding many small frames cheap.
type Decoder struct {
	src     Source
	err     error
	strings []string
	scratch []byte   // bytes of the entry being read, reused
	list    []string // the list Strings is reading, reused
}

// Reset points the decoder at src, clears its error and empties its
// string table.
func (d *Decoder) Reset(src Source) {
	d.src, d.err = src, nil
	d.strings = append(d.strings[:0], "")
}

// Err returns the first error the decoder met, or nil.
func (d *Decoder) Err() error { return d.err }

// fail records err unless an earlier error is already kept, mapping an
// end of input met inside a value to ErrTruncated.
func (d *Decoder) fail(err error) {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = ErrTruncated
	}
	if d.err == nil {
		d.err = err
	}
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.src.ReadByte()
	if err != nil {
		d.fail(err)
	}
	return b
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.src)
	if err != nil {
		d.fail(err)
	}
	return v
}

// Varint reads a zigzag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.src)
	if err != nil {
		d.fail(err)
	}
	return v
}

// Header reads a format's magic and version and returns Err. Input
// that does not open with magic, however short, is ErrBadMagic; a
// version other than the one given is an error naming both.
func (d *Decoder) Header(magic [4]byte, version uint64) error {
	var got [4]byte
	_, err := io.ReadFull(d.src, got[:])
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF || err == nil && got != magic:
		d.fail(ErrBadMagic)
	case err != nil:
		d.fail(err)
	}
	if v := d.Uvarint(); d.err == nil && v != version {
		d.fail(fmt.Errorf("unsupported %s version %d (want %d)", magic[:], v, version))
	}
	return d.err
}

// String reads an interned reference, adding a new entry to the table
// when the reference introduces one.
func (d *Decoder) String() string {
	idx := d.Uvarint()
	switch {
	case d.err != nil:
		return ""
	case idx < uint64(len(d.strings)):
		return d.strings[idx]
	case idx != uint64(len(d.strings)):
		d.fail(fmt.Errorf("string ref %d out of range (table has %d)", idx, len(d.strings)))
		return ""
	}
	n := d.Uvarint()
	if n > MaxStringLen {
		d.fail(fmt.Errorf("string length %d exceeds %d", n, MaxStringLen))
	}
	// The scratch grows only when full, to at most twice the bytes read
	// (readChunk at first), so a hostile length costs memory in
	// proportion to the bytes actually present.
	buf := d.scratch[:0]
	for d.err == nil && uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, uint64(max(2*len(buf), readChunk))))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(d.src, buf[len(buf):min(uint64(cap(buf)), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			d.fail(err)
		}
	}
	d.scratch = buf
	if d.err != nil {
		return ""
	}
	s := string(buf)
	d.strings = append(d.strings, s)
	return s
}

// Strings reads a uvarint count and then that many strings. A zero
// count reads as nil. The list is gathered in a reused scratch that
// grows as strings arrive, so a hostile count costs memory only for
// the strings actually present, and the result is an exact-size copy.
func (d *Decoder) Strings() []string {
	n := d.Uvarint()
	d.list = d.list[:0]
	for ; n > 0 && d.err == nil; n-- {
		d.list = append(d.list, d.String())
	}
	if d.err != nil || len(d.list) == 0 {
		return nil
	}
	return slices.Clone(d.list)
}

// Frames reads n frames into dst[:0] and returns it. n is bounded by
// MaxStackDepth, and dst grows as frames arrive, so a hostile depth
// costs memory only for the frames actually present.
func (d *Decoder) Frames(dst []stack.Frame, n uint64) []stack.Frame {
	dst = dst[:0]
	if n > MaxStackDepth {
		d.fail(fmt.Errorf("stack depth %d exceeds %d", n, MaxStackDepth))
	}
	for ; n > 0 && d.err == nil; n-- {
		f := stack.Frame{Func: d.String(), File: d.String(), Line: int(d.Varint())}
		dst = append(dst, f)
	}
	return dst
}
