// Package trace defines the event vocabulary shared by the modeled
// runtime (internal/sched) and the race detectors (internal/detector).
//
// The modeled runtime emits one Event per dynamic memory access or
// synchronization operation. Detectors are pure consumers of this event
// stream: FastTrack interprets Acquire/Release/Fork edges to maintain
// vector clocks, Eraser interprets Acquire/Release on lock-kind objects
// to maintain locksets, and both interpret Read/Write/Atomic* to update
// shadow memory. A Recorder can capture the stream for post-facto
// (offline) analysis, mirroring the paper's §3.3 deployment mode.
package trace

import (
	"fmt"

	"gorace/internal/stack"
	"gorace/internal/vclock"
)

// Addr identifies a modeled memory cell. Every instrumented variable,
// map key, map internal state, slice element, and slice header gets a
// distinct Addr from the scheduler's allocator.
type Addr uint64

// NoAddr is the zero Addr, used by events that do not touch memory.
const NoAddr Addr = 0

// ObjID identifies a synchronization object (mutex, channel slot,
// WaitGroup, atomic cell, ...).
type ObjID uint64

// NoObj is the zero ObjID.
const NoObj ObjID = 0

// StableBit marks addresses and object ids minted by the scheduler's
// stable identity mode (sched.G.StableIDs): 63-bit structural hashes
// rather than small dense allocation indices. Detectors that keep
// shadow state in dense slices test this bit and route such identities
// through a sparse side index instead of indexing directly.
const StableBit uint64 = 1 << 63

// ObjKind classifies synchronization objects so that detectors can
// treat them differently (e.g. the lockset algorithm only tracks
// mutexes and reader locks, not channel or WaitGroup edges).
type ObjKind uint8

const (
	KindNone     ObjKind = iota // no synchronization object
	KindMutex                   // sync.Mutex, and sync.RWMutex held in write mode
	KindRWRead                  // sync.RWMutex held in read mode (r-side release object)
	KindChan                    // channel rendezvous / buffer slot objects
	KindWG                      // WaitGroup completion edges
	KindAtomic                  // sync/atomic cells
	KindOnce                    // sync.Once completion edge
	KindInternal                // other runtime-internal edges (fork bookkeeping etc.)
)

// String names the kind for trace dumps and diagnostics.
func (k ObjKind) String() string {
	switch k {
	case KindMutex:
		return "mutex"
	case KindRWRead:
		return "rwread"
	case KindChan:
		return "chan"
	case KindWG:
		return "waitgroup"
	case KindAtomic:
		return "atomic"
	case KindOnce:
		return "once"
	case KindInternal:
		return "internal"
	default:
		return "none"
	}
}

// Op enumerates event kinds.
type Op uint8

const (
	// OpNone is the zero Op; no real event carries it.
	OpNone Op = iota

	OpRead        // plain memory read (carries Addr)
	OpWrite       // plain memory write (carries Addr)
	OpAtomicLoad  // sync/atomic load (carries Addr)
	OpAtomicStore // sync/atomic store (carries Addr)
	OpAtomicRMW   // sync/atomic read-modify-write (carries Addr)

	// Synchronization edges (carry Obj and Kind).
	OpAcquire // join the object's clock into the goroutine's clock
	OpRelease // join the goroutine's clock into the object's clock, then tick

	// Goroutine lifecycle.
	OpFork   // G spawned Child; child clock starts as copy of parent's
	OpGoEnd  // G finished
	OpGoLeak // G still blocked when the program ended (e.g. Listing 9 send)
)

// String names the operation for trace dumps and diagnostics.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAtomicLoad:
		return "atomic-load"
	case OpAtomicStore:
		return "atomic-store"
	case OpAtomicRMW:
		return "atomic-rmw"
	case OpAcquire:
		return "acquire"
	case OpRelease:
		return "release"
	case OpFork:
		return "fork"
	case OpGoEnd:
		return "go-end"
	case OpGoLeak:
		return "go-leak"
	default:
		return "none"
	}
}

// IsAccess reports whether the op is a memory access (plain or atomic).
func (o Op) IsAccess() bool {
	switch o {
	case OpRead, OpWrite, OpAtomicLoad, OpAtomicStore, OpAtomicRMW:
		return true
	}
	return false
}

// IsAtomic reports whether the op is an atomic access.
func (o Op) IsAtomic() bool {
	switch o {
	case OpAtomicLoad, OpAtomicStore, OpAtomicRMW:
		return true
	}
	return false
}

// IsWrite reports whether the op writes memory.
func (o Op) IsWrite() bool {
	return o == OpWrite || o == OpAtomicStore || o == OpAtomicRMW
}

// Event is one dynamic operation observed by the runtime.
type Event struct {
	Seq   uint64        // global sequence number (scheduler step)
	G     vclock.TID    // acting goroutine
	GName string        // acting goroutine's diagnostic name
	Op    Op            //
	Addr  Addr          // memory cell, for access ops
	Obj   ObjID         // sync object, for acquire/release
	Kind  ObjKind       // classification of Obj
	Child vclock.TID    // for OpFork
	Stack stack.Context // calling context at the operation
	Label string        // human-readable site label ("errMap[uuid] = err")
}

// String renders the event on one line for trace dumps.
func (e Event) String() string {
	switch {
	case e.Op.IsAccess():
		return fmt.Sprintf("#%d g%d %s a%d %s", e.Seq, e.G, e.Op, e.Addr, e.Stack.Leaf())
	case e.Op == OpAcquire || e.Op == OpRelease:
		return fmt.Sprintf("#%d g%d %s %s o%d", e.Seq, e.G, e.Op, e.Kind, e.Obj)
	case e.Op == OpFork:
		return fmt.Sprintf("#%d g%d fork g%d", e.Seq, e.G, e.Child)
	default:
		return fmt.Sprintf("#%d g%d %s", e.Seq, e.G, e.Op)
	}
}

// Listener consumes events online, in program order.
type Listener interface {
	HandleEvent(ev Event)
}

// ListenerFunc adapts a function to the Listener interface.
type ListenerFunc func(Event)

// HandleEvent implements Listener.
func (f ListenerFunc) HandleEvent(ev Event) { f(ev) }

// Recorder is a Listener that captures the event stream for offline
// (post-facto) analysis or replay into another detector.
type Recorder struct {
	Events []Event
}

// HandleEvent implements Listener.
func (r *Recorder) HandleEvent(ev Event) { r.Events = append(r.Events, ev) }

// Reset truncates the recording in place, retaining capacity, so one
// recorder can capture many runs without reallocating its buffer —
// a core.Worker records each of its runs into one recycled Recorder,
// so a 1000-seed sweep reuses a single recording buffer per worker
// instead of growing a thousand. Slices of Events handed out earlier
// are invalidated.
func (r *Recorder) Reset() { r.Events = r.Events[:0] }

// Snapshot copies the recording into a fresh, exactly-sized Recorder
// the caller owns. A recycled core.Worker lends its recording to each
// run's outcome and rewrites it on the next run; sweep.FirstRace,
// which keeps an outcome past that, snapshots its trace here.
func (r *Recorder) Snapshot() *Recorder {
	out := &Recorder{Events: make([]Event, len(r.Events))}
	copy(out.Events, r.Events)
	return out
}

// Replay feeds the recorded stream to another listener in order.
func (r *Recorder) Replay(l Listener) {
	for _, ev := range r.Events {
		l.HandleEvent(ev)
	}
}

// Multi fans one event stream out to several listeners.
type Multi []Listener

// HandleEvent implements Listener.
func (m Multi) HandleEvent(ev Event) {
	for _, l := range m {
		l.HandleEvent(ev)
	}
}
