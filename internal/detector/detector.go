// Package detector implements dynamic data race detection over the
// event stream of the modeled runtime.
//
// The detector family mirrors the algorithm family §3.1 describes
// inside ThreadSanitizer:
//
//   - FastTrack: the precise happens-before detector (vector clocks
//     with epoch optimizations), the reference detector of this repo,
//     with full two-stack reports and paged, evictable shadow memory.
//   - Epoch: FastTrack's verdicts over bare epochs, counting races per
//     address instead of building reports (the report-cost ablation).
//   - DJIT: the DJIT+ full-history vector-clock baseline, also
//     counting (the epochs-vs-vector-clocks ablation).
//   - Eraser: the classic lockset detector — interleaving-insensitive
//     but imprecise ("may include races that may never manifest").
//   - Hybrid: runs FastTrack and Eraser side by side, reporting
//     FastTrack races as confirmed and Eraser-only findings as lockset
//     candidates, approximating how TSan "integrates lock-set and
//     happens-before algorithms".
//   - Noop: the "none" overhead baseline.
//
// FastTrack, Epoch and DJIT share one happens-before core, hb: the
// goroutine and synchronization-object clocks and the fork, acquire
// and release edges between them. Each keeps only its own shadow cell
// and access check. Sampled gates any detector's accesses.
//
// All detectors are trace.Listeners and can run online (attached to a
// scheduler) or offline over a recorded trace (post-facto, the
// deployment mode of §3.3).
package detector

import (
	"encoding/binary"

	"gorace/internal/report"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// Detector is a race detector consuming runtime events. All detectors
// expose the same surface, so consumers (the core.Runner, the CLI
// tools, post-facto replay) never special-case an algorithm: precise
// detectors fill Races, lockset-based ones may additionally surface
// Candidates, and counting detectors (Epoch, DJIT) synthesize one
// minimal report per racy address so their verdicts still appear as
// reports.
type Detector interface {
	trace.Listener
	// Races returns the reports accumulated so far.
	Races() []report.Race
	// Candidates returns findings that may not manifest under the
	// analyzed schedule (lockset-only reports); nil for precise
	// detectors.
	Candidates() []report.Race
	// Stats summarizes the work performed (events, shadow cells,
	// reports); Stats().Reports is the race count for counting
	// detectors.
	Stats() Stats
	// Name identifies the detector in reports and experiments.
	Name() string
	// Reset rewinds the detector to its initial state in place,
	// retaining allocated buffers, so one instance can analyze many
	// runs without churning the garbage collector. After Reset, slices
	// previously returned by Races/Candidates are invalidated; callers
	// that keep results across runs must copy them first (core.Worker
	// does).
	Reset()
}

// lockTracker maintains per-goroutine held-lock sets from
// acquire/release events. Shared by the HB detector (for report
// annotation) and the Eraser detector (as its core state). Held sets
// are dense slices keyed by TID, so the per-event bookkeeping is a
// bounds check rather than a map probe.
type lockTracker struct {
	// write[g] / read[g] list lock object ids currently held, in
	// acquisition order; reads-held are tracked separately from
	// write-held.
	write [][]lockEntry
	read  [][]lockEntry
	// cache[g] holds the derived views of g's current lock set (its
	// interned label-set id for reports, id sets for lockset
	// refinement). Accesses are far more frequent than acquire/release,
	// so deriving these once per lock-set change instead of once per
	// access is what makes the annotated access path allocation-free.
	cache []lockView
	// sets interns held-label lists by content: sets[id] is one
	// immutable list, id 0 the empty set (nil). setIx maps a list's
	// encoding (built in keyBuf) to its id. The table survives reset —
	// ids never leave the detector and the lists are immutable — so a
	// recycled detector re-derives its lock sets without allocating.
	sets   [][]string
	setIx  map[string]uint32
	keyBuf []byte
}

// lockView caches the derived forms of one goroutine's lock set. Each
// field is built lazily under its own valid bit, so a detector that
// only wants labels (FastTrack) never pays for the id sets Eraser
// needs, and vice versa.
type lockView struct {
	setOK    bool
	set      uint32
	writeOK  bool
	writeIDs []trace.ObjID
	allOK    bool
	allIDs   []trace.ObjID
}

type lockEntry struct {
	obj   trace.ObjID
	label string
}

func newLockTracker() *lockTracker {
	return &lockTracker{sets: [][]string{nil}, setIx: make(map[string]uint32)}
}

// reset empties every held set in place, keeping per-goroutine buffers
// and the label-set table.
func (lt *lockTracker) reset() {
	for i := range lt.write {
		lt.write[i] = lt.write[i][:0]
	}
	for i := range lt.read {
		lt.read[i] = lt.read[i][:0]
	}
	for i := range lt.cache {
		lt.cache[i] = lockView{}
	}
}

// view returns g's cache slot, growing the table as needed.
func (lt *lockTracker) view(g vclock.TID) *lockView {
	for int(g) >= len(lt.cache) {
		lt.cache = append(lt.cache, lockView{})
	}
	return &lt.cache[g]
}

// invalidate marks g's derived views stale after a lock-set mutation.
func (lt *lockTracker) invalidate(g vclock.TID) {
	if int(g) < len(lt.cache) {
		lt.cache[g] = lockView{}
	}
}

func growLocks(held [][]lockEntry, g vclock.TID) [][]lockEntry {
	for int(g) >= len(held) {
		held = append(held, nil)
	}
	return held
}

// handle updates lock state; returns true if the event was lock-related.
func (lt *lockTracker) handle(ev trace.Event) bool {
	switch {
	case ev.Op == trace.OpAcquire && ev.Kind == trace.KindMutex:
		lt.write = growLocks(lt.write, ev.G)
		lt.write[ev.G] = append(lt.write[ev.G], lockEntry{ev.Obj, ev.Label})
	case ev.Op == trace.OpRelease && ev.Kind == trace.KindMutex:
		lt.write = growLocks(lt.write, ev.G)
		lt.write[ev.G] = removeLock(lt.write[ev.G], ev.Obj)
	case ev.Op == trace.OpAcquire && ev.Kind == trace.KindRWRead:
		lt.read = growLocks(lt.read, ev.G)
		lt.read[ev.G] = append(lt.read[ev.G], lockEntry{ev.Obj, ev.Label})
	case ev.Op == trace.OpRelease && ev.Kind == trace.KindRWRead:
		lt.read = growLocks(lt.read, ev.G)
		lt.read[ev.G] = removeLock(lt.read[ev.G], ev.Obj)
	default:
		return false
	}
	lt.invalidate(ev.G)
	return true
}

func removeLock(ls []lockEntry, obj trace.ObjID) []lockEntry {
	for i := len(ls) - 1; i >= 0; i-- {
		if ls[i].obj == obj {
			return append(ls[:i], ls[i+1:]...)
		}
	}
	return ls
}

func heldOf(held [][]lockEntry, g vclock.TID) []lockEntry {
	if int(g) >= len(held) {
		return nil
	}
	return held[g]
}

// writeHeld returns the ids of write-held locks of g. The slice is
// shared and immutable; callers may retain but must not mutate it.
func (lt *lockTracker) writeHeld(g vclock.TID) []trace.ObjID {
	v := lt.view(g)
	if !v.writeOK {
		v.writeOK = true
		v.writeIDs = nil
		for _, e := range heldOf(lt.write, g) {
			v.writeIDs = append(v.writeIDs, e.obj)
		}
	}
	return v.writeIDs
}

// allHeld returns the ids of all locks (write- and read-held) of g,
// under the same sharing contract as writeHeld.
func (lt *lockTracker) allHeld(g vclock.TID) []trace.ObjID {
	v := lt.view(g)
	if !v.allOK {
		v.allOK = true
		v.allIDs = nil
		for _, e := range heldOf(lt.write, g) {
			v.allIDs = append(v.allIDs, e.obj)
		}
		for _, e := range heldOf(lt.read, g) {
			v.allIDs = append(v.allIDs, e.obj)
		}
	}
	return v.allIDs
}

// heldLabels returns human-readable names of all locks held by g
// (read-held ones suffixed "(r)"), under the same sharing contract as
// writeHeld.
func (lt *lockTracker) heldLabels(g vclock.TID) []string {
	return lt.sets[lt.setID(g)]
}

// setID returns the interned id of g's held-label list, derived at
// most once per lock-set change.
func (lt *lockTracker) setID(g vclock.TID) uint32 {
	v := lt.view(g)
	if !v.setOK {
		v.setOK = true
		v.set = lt.intern(heldOf(lt.write, g), heldOf(lt.read, g))
	}
	return v.set
}

// maxLockLabels caps an interned held-label list: a goroutine holding
// more locks is labelled with its first maxLockLabels (write-held
// first, each in acquisition order), then lockOverflow. Without the
// cap a stream that acquires and never releases interns a list of
// every depth 1…n, quadratic in n; with it a new set costs O(1).
const maxLockLabels = 32

// lockOverflow ends a held-label list cut at maxLockLabels.
const lockOverflow = "…"

// intern returns the id of the label list of write-held w then
// read-held r, adding the list on first sight. A repeated lock set
// costs one map probe and no allocation.
func (lt *lockTracker) intern(w, r []lockEntry) uint32 {
	if len(w)+len(r) == 0 {
		return 0
	}
	cut := len(w)+len(r) > maxLockLabels
	w = w[:min(len(w), maxLockLabels)]
	r = r[:min(len(r), maxLockLabels-len(w))]
	// Length-prefixed labels keep the encoding unambiguous whatever
	// bytes a label holds; only a cut list has a label past the cap.
	key := lt.keyBuf[:0]
	for _, e := range w {
		key = binary.AppendUvarint(key, uint64(len(e.label)))
		key = append(key, e.label...)
	}
	for _, e := range r {
		key = binary.AppendUvarint(key, uint64(len(e.label)+len(readSuffix)))
		key = append(key, e.label...)
		key = append(key, readSuffix...)
	}
	if cut {
		key = binary.AppendUvarint(key, uint64(len(lockOverflow)))
		key = append(key, lockOverflow...)
	}
	lt.keyBuf = key
	if id, ok := lt.setIx[string(key)]; ok {
		return id
	}
	labels := make([]string, 0, len(w)+len(r)+1)
	for _, e := range w {
		labels = append(labels, e.label)
	}
	for _, e := range r {
		labels = append(labels, e.label+readSuffix)
	}
	if cut {
		labels = append(labels, lockOverflow)
	}
	id := uint32(len(lt.sets))
	lt.sets = append(lt.sets, labels)
	lt.setIx[string(key)] = id
	return id
}

// readSuffix marks a read-held lock in report labels.
const readSuffix = "(r)"

// intersect keeps the members of a that are also in b. When every
// member of a survives — by far the common case for consistently
// locked data — a is returned unchanged, so steady-state lockset
// refinement allocates nothing.
func intersect(a, b []trace.ObjID) []trace.ObjID {
	kept := 0
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			break
		}
		kept++
	}
	if kept == len(a) {
		return a
	}
	out := append([]trace.ObjID(nil), a[:kept]...)
	for _, x := range a[kept+1:] {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}
