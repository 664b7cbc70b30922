package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"gorace/internal/stack"
	"gorace/internal/wire"
)

// ErrNotTrace reports input that is not a binary trace: it does not
// open with the GRTB magic. Empty input and the version-1 JSON Lines
// form, which is no longer read, are both ErrNotTrace.
var ErrNotTrace = fmt.Errorf("trace: not a binary trace: %w", wire.ErrBadMagic)

// Identity bounds the decoder enforces. Detectors keep goroutine
// clocks, sync-object clocks and default-mode shadow cells in slices
// indexed by the raw identity, so an unbounded id would let one event
// of a few bytes allocate in proportion to its value. Every bound
// keeps one event's worst case, in any detector, to a few MiB; the
// scheduler's dense identities sit far below them. Stable identities
// (StableBit set) go through the detectors' sparse index, which costs
// per distinct identity, and are not bounded.
const (
	// MaxGoroutines bounds goroutine ids, an event's G and a fork's
	// Child: both must be below it.
	MaxGoroutines = 1 << 16
	// MaxDenseID bounds default-mode addresses and object ids: a
	// non-stable Addr or ObjID must be below it.
	MaxDenseID = 1 << 14
)

// ErrIDRange reports an event whose goroutine id, or default-mode
// address or object id, is at or above its decoder bound.
var ErrIDRange = errors.New("trace: identity out of range")

// checkDense returns an ErrIDRange error for a non-stable id at or
// above MaxDenseID.
func checkDense(what string, id uint64) error {
	if id&StableBit == 0 && id >= MaxDenseID {
		return fmt.Errorf("%w: %s %d (max %d)", ErrIDRange, what, id, MaxDenseID-1)
	}
	return nil
}

// Decoder incrementally decodes a binary trace from a reader. Next
// returns events one at a time and io.EOF at a clean end of stream, so
// arbitrarily long traces — including live streams that have no end
// yet — replay without a full-file buffer. Decoder state (string
// table, per-goroutine prediction context, interned stacks) scales
// with the trace's distinct strings and call sites, not with its
// length.
type Decoder struct {
	br *bufio.Reader
	w  wire.Decoder
	// gs is the per-goroutine prediction context, indexed by G and
	// grown on demand; MaxGoroutines bounds its length.
	gs []decG
	// depot interns decoded contexts across goroutines and stack
	// switches: a stream that revisits the same call sites millions of
	// times materializes each Context once.
	depot   *stack.Depot
	frames  []stack.Frame // scratch, reused across events
	lastSeq uint64
	// counted is set for traces whose header carries an exact event
	// count (Recorder.Save); streamed traces read until EOF.
	counted bool
	count   uint64
	events  uint64
	err     error
}

// decG is one goroutine's decoder state: the bases its address and
// object deltas apply to, and the Context of its current frame list,
// which the "same stack" marker reuses without an allocation.
type decG struct {
	lastAddr, lastObj uint64
	stack             stack.Context
}

// gstate returns g's decoder state, growing gs to cover g; the caller
// has checked g against MaxGoroutines.
func (d *Decoder) gstate(g uint64) *decG {
	if g >= uint64(len(d.gs)) {
		grown := make([]decG, min(max(2*uint64(len(d.gs)), g+1), MaxGoroutines))
		copy(grown, d.gs)
		d.gs = grown
	}
	return &d.gs[g]
}

// NewDecoder reads the trace header from r and returns a decoder
// positioned at the first event. Input without the GRTB magic fails
// with ErrNotTrace before more than the magic is read. The reader is
// buffered internally; the caller must not read from r afterwards.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{
		br:    bufio.NewReader(r),
		depot: stack.NewDepot(),
	}
	d.w.Reset(d.br)
	d.w.Header(codecMagic, codecVersion)
	count := d.w.Uvarint()
	if err := d.w.Err(); errors.Is(err, wire.ErrBadMagic) {
		return nil, ErrNotTrace
	} else if err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	if count != codecStreamed {
		d.counted = true
		d.count = count
	}
	return d, nil
}

// Count returns the event count from a counted header and true, or 0
// and false for a streamed trace whose length is unknown until EOF.
// The count is a size *hint* from the producer, not a promise — a
// hostile header can claim anything, so consumers must cap what they
// preallocate from it.
func (d *Decoder) Count() (uint64, bool) {
	return d.count, d.counted
}

// Decoded returns the number of events successfully decoded so far.
func (d *Decoder) Decoded() uint64 { return d.events }

// Next decodes and returns the next event. At a clean end of stream it
// returns io.EOF; any other error means the trace is truncated or
// corrupt. Errors, io.EOF included, are sticky.
func (d *Decoder) Next() (Event, error) {
	if d.err != nil {
		return Event{}, d.err
	}
	if d.counted && d.events == d.count {
		d.err = io.EOF
		return Event{}, d.err
	}
	ev, err := d.event(!d.counted)
	if err != nil {
		if d.err = err; err != io.EOF {
			d.err = fmt.Errorf("trace: decode event %d: %w", d.events, err)
		}
		return Event{}, d.err
	}
	d.events++
	return ev, nil
}

// maxCountPrealloc caps how many events Load preallocates from a
// counted header: the count is attacker-controlled in a hostile trace,
// and must not translate directly into an allocation.
const maxCountPrealloc = 1 << 16
