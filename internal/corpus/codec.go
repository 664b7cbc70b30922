package corpus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"gorace/internal/report"
	"gorace/internal/stack"
	"gorace/internal/taxonomy"
	"gorace/internal/trace"
	"gorace/internal/vclock"
	"gorace/internal/wire"
)

// On-disk corpus store format (version 1), built on internal/wire, the
// codec the binary trace format shares: a magic header, varint
// integers, and interned strings (see docs/FORMATS.md for the shared
// primitives and their bounds).
//
// Layout:
//
//	"GRCS" magic | uvarint version | frames...
//
// Each frame:
//
//	uvarint payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// A frame is written with a single Write call, so a crash tears at
// most the final frame; Open detects the torn tail by length/CRC and
// truncates it away. Payloads are self-contained — every frame carries
// its own string table — so dropping the tail never corrupts earlier
// frames.
//
// Payload:
//
//	kind byte (1 = race record, 2 = run marker) | kind-specific body
//
// Race record body (string = a reference into the frame's wire string
// table; strings = uvarint count, then that many strings):
//
//	string key | string unit | strings run ids
//	uvarint occurrence count
//	string category | strings labels
//	string detector | string trace path
//	uvarint race seq | string race detector
//	access first | access second
//
// Access:
//
//	uvarint G | string goroutine name | op byte
//	uvarint addr | uvarint seq | string label | atomic byte
//	strings locks
//	uvarint stack depth | depth wire frames
//	                      (string func | string file | zigzag line)
//
// Run marker body:
//
//	string run id | string label
//	uvarint executions | uvarint reports
//
// Version bumps are reserved for layout changes; adding new payload
// kinds is backward compatible (readers skip unknown kinds, whose CRC
// still validates). See docs/FORMATS.md for the compat policy.

// storeMagic identifies a corpus store file.
var storeMagic = [4]byte{'G', 'R', 'C', 'S'}

// storeVersion is written after the magic; readers reject versions
// they do not know.
const storeVersion = 1

// Frame payload kinds.
const (
	kindRecord = 1
	kindRun    = 2
)

// maxFramePayload bounds a single frame; anything larger is treated as
// tail corruption rather than allocated.
const maxFramePayload = 16 << 20

// recEncoder builds and writes frames. record and run each start a
// new payload with an empty string table, so every frame is
// self-contained; the buffers are reused from frame to frame.
type recEncoder struct {
	wire.Encoder
	frame []byte // length, CRC and payload of the frame being written
}

func (e *recEncoder) access(a report.Access) {
	e.Uvarint(uint64(a.G))
	e.String(a.GName)
	e.Byte(byte(a.Op))
	e.Uvarint(uint64(a.Addr))
	e.Uvarint(a.Seq)
	e.String(a.Label)
	atomic := byte(0)
	if a.Atomic {
		atomic = 1
	}
	e.Byte(atomic)
	e.Strings(a.Locks)
	frames := a.Stack.Frames()
	e.Uvarint(uint64(len(frames)))
	e.Frames(frames)
}

func (e *recEncoder) record(r Record) {
	e.Reset()
	e.Byte(kindRecord)
	e.String(r.Key)
	e.String(r.Unit)
	e.Strings(r.RunIDs)
	e.Uvarint(r.Count)
	e.String(string(r.Category))
	e.Uvarint(uint64(len(r.Labels)))
	for _, l := range r.Labels {
		e.String(string(l))
	}
	e.String(r.Detector)
	e.String(r.TracePath)
	e.Uvarint(r.Race.Seq)
	e.String(r.Race.Detector)
	e.access(r.Race.First)
	e.access(r.Race.Second)
}

func (e *recEncoder) run(info RunInfo) {
	e.Reset()
	e.Byte(kindRun)
	e.String(info.ID)
	e.String(info.Label)
	e.Uvarint(uint64(info.Executions))
	e.Uvarint(uint64(info.Reports))
}

// writeFrame frames the encoder's payload (length, CRC, payload) into
// one buffer and writes it with a single Write call.
func (e *recEncoder) writeFrame(w io.Writer) error {
	payload := e.Bytes()
	e.frame = binary.AppendUvarint(e.frame[:0], uint64(len(payload)))
	e.frame = binary.LittleEndian.AppendUint32(e.frame, crc32.ChecksumIEEE(payload))
	e.frame = append(e.frame, payload...)
	_, err := w.Write(e.frame)
	return err
}

// errTornTail marks a frame cut off by the end of the input — the
// expected shape of a crash mid-append.
var errTornTail = errors.New("torn tail frame")

// nextFrame splits off the frame at data[off:], returning its payload
// and the offset just past it. It returns errTornTail when the frame
// runs past the end of data or the *final* frame's CRC mismatches
// (recoverable by truncation), and a hard error for corruption with
// intact data after it.
func nextFrame(data []byte, off int) ([]byte, int, error) {
	n, k := binary.Uvarint(data[off:])
	if k <= 0 {
		return nil, off, errTornTail // length varint cut off at EOF
	}
	if n > maxFramePayload {
		return nil, off, fmt.Errorf("frame length %d implausible", n)
	}
	off += k
	if len(data)-off < 4+int(n) {
		return nil, off, errTornTail
	}
	crc := binary.LittleEndian.Uint32(data[off:])
	payload := data[off+4 : off+4+int(n)]
	off += 4 + int(n)
	if crc32.ChecksumIEEE(payload) != crc {
		if off >= len(data) {
			return nil, off, errTornTail
		}
		return nil, off, fmt.Errorf("CRC mismatch mid-file (payload %d bytes)", n)
	}
	return payload, off, nil
}

// folder receives decoded frames: a Store folds them into its state,
// an Export collects them in order.
type folder interface {
	fold(Record)
	foldRun(RunInfo)
}

// frameDecoder decodes frame payloads. Its wire decoder, the reader
// under it and the stack scratch are reused from frame to frame, so a
// large store opens at the cost of its strings, not of its frames.
type frameDecoder struct {
	r      bytes.Reader
	d      wire.Decoder
	frames []stack.Frame
}

// header resets the decoder onto data and reads a magic and version.
// The header fields that follow, if any, are read with fd.d.
func (fd *frameDecoder) header(data []byte, magic [4]byte, version uint64) error {
	fd.r.Reset(data)
	fd.d.Reset(&fd.r)
	return fd.d.Header(magic, version)
}

// decodePayload decodes one CRC-checked frame payload into f. Unknown
// payload kinds are skipped for forward compatibility.
func (fd *frameDecoder) decodePayload(payload []byte, f folder) error {
	fd.r.Reset(payload)
	fd.d.Reset(&fd.r)
	switch fd.d.Byte() {
	case kindRecord:
		if rec := fd.record(); fd.d.Err() == nil {
			f.fold(rec)
		}
	case kindRun:
		if info := fd.run(); fd.d.Err() == nil {
			f.foldRun(info)
		}
	}
	return fd.d.Err()
}

func (fd *frameDecoder) access() report.Access {
	d := &fd.d
	var a report.Access
	a.G = vclock.TID(d.Uvarint())
	a.GName = d.String()
	a.Op = trace.Op(d.Byte())
	a.Addr = trace.Addr(d.Uvarint())
	a.Seq = d.Uvarint()
	a.Label = d.String()
	a.Atomic = d.Byte() != 0
	a.Locks = d.Strings()
	fd.frames = d.Frames(fd.frames, d.Uvarint())
	a.Stack = stack.NewContext(fd.frames...)
	return a
}

func (fd *frameDecoder) record() Record {
	d := &fd.d
	var r Record
	r.Key = d.String()
	r.Unit = d.String()
	r.RunIDs = d.Strings()
	r.Count = d.Uvarint()
	r.Category = taxonomy.Category(d.String())
	for _, l := range d.Strings() {
		r.Labels = append(r.Labels, taxonomy.Category(l))
	}
	r.Detector = d.String()
	r.TracePath = d.String()
	r.Race.Seq = d.Uvarint()
	r.Race.Detector = d.String()
	r.Race.First = fd.access()
	r.Race.Second = fd.access()
	return r
}

func (fd *frameDecoder) run() RunInfo {
	d := &fd.d
	return RunInfo{
		ID:         d.String(),
		Label:      d.String(),
		Executions: int(d.Uvarint()),
		Reports:    int(d.Uvarint()),
	}
}
