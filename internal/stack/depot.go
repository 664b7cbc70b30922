package stack

import (
	"encoding/binary"
	"unsafe"
)

// Depot interns calling contexts: structurally identical frame lists
// resolve to one shared Context value, however many events, reports,
// or decoded traces reference them. This is what keeps a retained race
// report from pinning per-event stack copies — a days-long stream
// re-observes the same few thousand distinct contexts millions of
// times, and the depot stores each exactly once (the shape of
// racedetector's stackdepot, §3.3).
//
// Frames are keyed by their name strings' addresses and lengths and
// their lines, never by the names' bytes: a trace decoder hands out
// one string per string-table entry, so equal frames from one stream
// key alike, and a key costs a few bytes per frame however long a
// hostile stream's names are. Equal names at other addresses key
// differently, which costs only a duplicate entry. A key's addresses
// stay valid because the Context stored under it keeps its strings
// alive.
//
// A Depot is not safe for concurrent use; each decoder or ingest
// stream owns its own.
type Depot struct {
	m map[string]Context
	// keyBuf is the reused scratch buffer for key construction, so a
	// depot hit allocates nothing beyond the map probe.
	keyBuf []byte
}

// NewDepot returns an empty depot.
func NewDepot() *Depot {
	return &Depot{m: make(map[string]Context)}
}

// Intern returns the canonical Context for frames, copying them into a
// new Context only on first sight. The empty frame list interns to the
// zero Context.
func (d *Depot) Intern(frames []Frame) Context {
	if len(frames) == 0 {
		return Context{}
	}
	key := d.keyBuf[:0]
	for _, f := range frames {
		key = binary.AppendUvarint(key, uint64(uintptr(unsafe.Pointer(unsafe.StringData(f.Func)))))
		key = binary.AppendUvarint(key, uint64(len(f.Func)))
		key = binary.AppendUvarint(key, uint64(uintptr(unsafe.Pointer(unsafe.StringData(f.File)))))
		key = binary.AppendUvarint(key, uint64(len(f.File)))
		key = binary.AppendVarint(key, int64(f.Line))
	}
	d.keyBuf = key
	if c, ok := d.m[string(key)]; ok {
		return c
	}
	c := NewContext(frames...)
	d.m[string(key)] = c
	return c
}

// Size returns the number of distinct contexts interned so far.
func (d *Depot) Size() int { return len(d.m) }
