package trace

import (
	"bufio"
	"fmt"
	"io"
	"slices"

	"gorace/internal/stack"
	"gorace/internal/vclock"
	"gorace/internal/wire"
)

// Binary trace codec (format version 1), the only durable trace form.
//
// The paper's deployment mode is record-once/analyze-many: a trace is
// captured on one machine and replayed into detectors long after the
// execution is gone, across thousands of runs a night. The codec
// exploits the stream's actual redundancy:
//
//   - all integers are varints (addresses, objects, and sequence
//     numbers are small or slowly drifting);
//   - Seq is delta-encoded against the previous event (the scheduler
//     hands out nearly consecutive numbers);
//   - Addr and Obj are zigzag-delta-encoded against the *same
//     goroutine's* previous access — goroutines revisit nearby cells,
//     so per-goroutine deltas are far smaller than absolute values;
//   - GName, Label, and stack frame strings are interned in one
//     string table that spans the whole stream;
//   - a call stack identical to the same goroutine's previous stack
//     (the overwhelmingly common case: many events per frame) is a
//     single 0 byte.
//
// The primitives (varints, the string table, frames, the header check
// and their bounds) are internal/wire's; see docs/FORMATS.md.
//
// Layout:
//
//	"GRTB" magic | uvarint version | uvarint event count | events...
//
// A writer that knows the event count up front (Recorder.Save) writes
// it; a streaming writer (Encoder) cannot, and writes the sentinel
// codecStreamed instead, meaning "events until EOF". Decoders accept
// both.
//
// Each event:
//
//	op byte | uvarint G | zigzag ΔSeq
//	| access ops:     zigzag ΔAddr (vs G's last Addr)
//	| acquire/release: zigzag ΔObj (vs G's last Obj) | kind byte
//	| fork:           uvarint Child
//	| string GName | string Label
//	| stack: 0 (same as G's previous stack)
//	|        or uvarint depth+1, then depth wire frames
//	|        (string Func | string File | zigzag Line)

// codecMagic identifies a binary trace.
var codecMagic = [4]byte{'G', 'R', 'T', 'B'}

// codecVersion is written after the magic; readers reject versions
// they do not know.
const codecVersion = 1

// codecStreamed is the event-count sentinel written by streaming
// encoders: the stream holds events until EOF, with no count known up
// front.
const codecStreamed = ^uint64(0)

// gCodecState is the encoder's per-goroutine prediction context; the
// decoder keeps the same bases in decG.
type gCodecState struct {
	lastAddr  uint64
	lastObj   uint64
	lastStack []stack.Frame
}

// encoder encodes each event into a wire.Encoder whose string table
// spans the whole stream, then hands the event's bytes to the buffered
// writer in one Write.
type encoder struct {
	wire.Encoder
	w       *bufio.Writer
	err     error
	gs      map[vclock.TID]*gCodecState
	lastSeq uint64
}

// newEncoderState writes the header, carrying count (or the
// codecStreamed sentinel), into a buffered writer on w.
func newEncoderState(w io.Writer, count uint64) *encoder {
	e := &encoder{w: bufio.NewWriter(w), gs: make(map[vclock.TID]*gCodecState)}
	e.Header(codecMagic, codecVersion)
	e.Uvarint(count)
	e.emit()
	return e
}

// emit writes the bytes encoded since the last emit. Every write goes
// through one sticky-error check, so a failing sink (a closed pipe, a
// full disk) surfaces on the next Encode instead of only at Flush.
func (e *encoder) emit() {
	if e.err == nil {
		_, e.err = e.w.Write(e.Bytes())
	}
	e.ResetBytes()
}

func (e *encoder) gstate(g vclock.TID) *gCodecState {
	st, ok := e.gs[g]
	if !ok {
		st = &gCodecState{}
		e.gs[g] = st
	}
	return st
}

func (e *encoder) event(ev Event) {
	gs := e.gstate(ev.G)
	e.Byte(byte(ev.Op))
	e.Uvarint(uint64(ev.G))
	e.Varint(int64(ev.Seq) - int64(e.lastSeq))
	e.lastSeq = ev.Seq
	switch {
	case ev.Op.IsAccess():
		e.Varint(int64(ev.Addr) - int64(gs.lastAddr))
		gs.lastAddr = uint64(ev.Addr)
	case ev.Op == OpAcquire || ev.Op == OpRelease:
		e.Varint(int64(ev.Obj) - int64(gs.lastObj))
		gs.lastObj = uint64(ev.Obj)
		e.Byte(byte(ev.Kind))
	case ev.Op == OpFork:
		e.Uvarint(uint64(ev.Child))
	}
	e.String(ev.GName)
	e.String(ev.Label)
	frames := ev.Stack.Frames()
	if slices.Equal(frames, gs.lastStack) {
		e.Uvarint(0)
	} else {
		e.Uvarint(uint64(len(frames)) + 1)
		e.Frames(frames)
		gs.lastStack = frames
	}
	e.emit()
}

func (e *encoder) flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// Save writes the recorded trace in the binary format. The event
// count is known up front, so Save writes a counted header; Encoder is
// the streaming path for counts not known until EOF.
func (r *Recorder) Save(w io.Writer) error {
	e := newEncoderState(w, uint64(len(r.Events)))
	for _, ev := range r.Events {
		e.event(ev)
	}
	if err := e.flush(); err != nil {
		return fmt.Errorf("trace: save binary: %w", err)
	}
	return nil
}

// Encoder writes events incrementally in the binary codec — the
// live-capture half of streaming detection, where a producer encodes
// an execution as it happens and the total event count is unknown
// until the stream ends. The header carries the codecStreamed
// sentinel; Decoder reads such streams until EOF.
type Encoder struct {
	e *encoder
}

// NewEncoder starts a streamed binary trace on w. The header is
// buffered immediately; call Flush (or encode enough events to fill
// the buffer) to push bytes to w.
func NewEncoder(w io.Writer) *Encoder {
	e := newEncoderState(w, codecStreamed)
	return &Encoder{e: e}
}

// Encode appends one event to the stream. Events must arrive in
// stream order (Seq deltas are encoded against the previous event).
// An error is sticky: once the underlying writer fails, every later
// Encode reports the same error.
func (enc *Encoder) Encode(ev Event) error {
	enc.e.event(ev)
	return enc.e.err
}

// Flush pushes all buffered bytes to the underlying writer. Call it
// at stream end (and at any latency boundary a live consumer needs).
func (enc *Encoder) Flush() error {
	return enc.e.flush()
}

// event decodes the next event into ev, overwriting every field.
// atEOF reports whether a clean EOF (no event bytes at all) is legal
// here; when it is, the bare io.EOF is returned untouched for the
// caller to translate into end-of-stream.
func (d *Decoder) event(ev *Event, atEOF bool) error {
	w := &d.w
	opb, err := w.ReadByte()
	if err == io.EOF && !atEOF {
		err = wire.ErrTruncated
	}
	if err != nil {
		return err
	}
	ev.Op = Op(opb)
	g := w.Uvarint()
	if g >= MaxGoroutines {
		return fmt.Errorf("%w: goroutine %d (max %d)", ErrIDRange, g, MaxGoroutines-1)
	}
	ev.G = vclock.TID(g)
	gs := d.gstate(g)
	ev.Seq = uint64(int64(d.lastSeq) + w.Varint())
	d.lastSeq = ev.Seq
	ev.Addr, ev.Obj, ev.Kind, ev.Child = NoAddr, NoObj, KindNone, 0
	switch {
	case ev.Op.IsAccess():
		gs.lastAddr = uint64(int64(gs.lastAddr) + w.Varint())
		if err := checkDense("address", gs.lastAddr); err != nil {
			return err
		}
		ev.Addr = Addr(gs.lastAddr)
	case ev.Op == OpAcquire || ev.Op == OpRelease:
		gs.lastObj = uint64(int64(gs.lastObj) + w.Varint())
		if err := checkDense("object", gs.lastObj); err != nil {
			return err
		}
		ev.Obj = ObjID(gs.lastObj)
		ev.Kind = ObjKind(w.Byte())
	case ev.Op == OpFork:
		child := w.Uvarint()
		if child >= MaxGoroutines {
			return fmt.Errorf("%w: child goroutine %d (max %d)", ErrIDRange, child, MaxGoroutines-1)
		}
		ev.Child = vclock.TID(child)
	}
	ev.GName = w.String()
	ev.Label = w.String()
	if depth := w.Uvarint(); depth == 0 {
		ev.Stack = gs.stack
	} else if d.frames = w.Frames(d.frames, depth-1); w.Err() == nil {
		ev.Stack = d.depot.Intern(d.frames)
		gs.stack = ev.Stack
	}
	return w.Err()
}
