package detector

import (
	"gorace/internal/report"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// eraserState is the per-cell state machine of the Eraser algorithm
// (Savage et al., TOCS 1997).
type eraserState uint8

const (
	stVirgin eraserState = iota
	stExclusive
	stShared
	stSharedModified
)

func (s eraserState) String() string {
	switch s {
	case stVirgin:
		return "virgin"
	case stExclusive:
		return "exclusive"
	case stShared:
		return "shared"
	case stSharedModified:
		return "shared-modified"
	default:
		return "?"
	}
}

// eraserCell lives by value in a cellTable; its zero
// value (state stVirgin) is a valid fresh cell, so no per-cell
// initialization or allocation happens on first touch.
type eraserCell struct {
	seen  bool
	state eraserState
	owner vclock.TID
	// candidate is C(v): locks held at *every* access so far (write
	// locks for writes; write- or read-held locks for reads). nil
	// means "not yet initialized", distinct from the empty set.
	candidate   []trace.ObjID
	initialized bool
	last        report.Access
	hasLast     bool
	reported    bool
}

// Eraser is the lockset race detector: interleaving-insensitive, so it
// flags inconsistently-locked data even when the analyzed schedule
// never exposed unordered accesses — and, dually, it false-positives
// on data synchronized by non-lock means (channels, WaitGroups), the
// imprecision §3.1 notes ("may include races that may never manifest").
type Eraser struct {
	locks *lockTracker
	cells cellTable[eraserCell]
	races []report.Race
	st    Stats // work counters; Stats fills in the derived ones
}

// NewEraser returns a fresh lockset detector.
func NewEraser() *Eraser {
	return &Eraser{locks: newLockTracker()}
}

// Reset implements Detector: the cell slice is zeroed in place and the
// lock tracker emptied, keeping all buffers for the next run. Slices
// previously returned by Races are invalidated.
func (e *Eraser) Reset() {
	e.cells.reset(func(c *eraserCell) { *c = eraserCell{} })
	e.locks.reset()
	e.races = e.races[:0]
	e.st = Stats{}
}

// Name implements Detector.
func (e *Eraser) Name() string { return "eraser-lockset" }

// Races implements Detector. Eraser reports are inherently lockset
// findings; standalone use reports them as Races, while the Hybrid
// detector demotes the unconfirmed ones to Candidates.
func (e *Eraser) Races() []report.Race { return e.races }

// Candidates implements Detector.
func (e *Eraser) Candidates() []report.Race { return nil }

// RaceCount returns the number of reports.
func (e *Eraser) RaceCount() int { return len(e.races) }

// HandleEvent implements trace.Listener.
func (e *Eraser) HandleEvent(ev trace.Event) {
	e.st.note(&ev)
	if lock, _ := e.locks.handle(&ev); lock {
		return
	}
	if !ev.Op.IsAccess() || ev.Op.IsAtomic() {
		// Atomic accesses are treated as synchronization, not data
		// accesses, by the lockset algorithm.
		return
	}
	c := e.cells.at(ev.Addr)
	if !c.seen {
		c.seen = true
		e.st.Cells++
	}
	isWrite := ev.Op.IsWrite()
	held := e.locks.allHeld(ev.G)
	if isWrite {
		held = e.locks.writeHeld(ev.G)
	}

	switch c.state {
	case stVirgin:
		c.state = stExclusive
		c.owner = ev.G
	case stExclusive:
		if ev.G != c.owner {
			if isWrite {
				c.state = stSharedModified
			} else {
				c.state = stShared
			}
			c.candidate = held
			c.initialized = true
		}
	case stShared:
		c.refine(held)
		if isWrite {
			c.state = stSharedModified
		}
	case stSharedModified:
		c.refine(held)
	}

	if c.state == stSharedModified && c.initialized && len(c.candidate) == 0 && !c.reported {
		c.reported = true
		var first report.Access
		if c.hasLast {
			first = c.last
		}
		e.races = append(e.races, report.Race{
			First: first,
			Second: report.Access{
				G: ev.G, GName: ev.GName, Op: ev.Op, Addr: ev.Addr, Seq: ev.Seq,
				Stack: ev.Stack, Label: ev.Label,
				Locks: e.locks.heldLabels(ev.G),
			},
			Detector: e.Name(),
			Seq:      ev.Seq,
		})
	}

	c.last = report.Access{
		G: ev.G, GName: ev.GName, Op: ev.Op, Addr: ev.Addr, Seq: ev.Seq,
		Stack: ev.Stack, Label: ev.Label, Locks: e.locks.heldLabels(ev.G),
	}
	c.hasLast = true
}

func (c *eraserCell) refine(held []trace.ObjID) {
	if !c.initialized {
		c.candidate = held
		c.initialized = true
		return
	}
	c.candidate = intersect(c.candidate, held)
}

// Hybrid runs the happens-before and lockset detectors side by side,
// approximating ThreadSanitizer's integration of the two algorithms:
// HB reports are precise ("confirmed"); Eraser findings on cells the
// HB detector did not flag are "candidates" — potential races the
// analyzed interleaving happened to order.
type Hybrid struct {
	HB *FastTrack
	LS *Eraser
}

// NewHybrid returns a fresh hybrid detector.
func NewHybrid() *Hybrid {
	return &Hybrid{HB: NewFastTrack(), LS: NewEraser()}
}

// Reset implements Detector by resetting both sides.
func (h *Hybrid) Reset() {
	h.HB.Reset()
	h.LS.Reset()
}

// Name implements Detector.
func (h *Hybrid) Name() string { return "hybrid-tsan" }

// HandleEvent implements trace.Listener.
func (h *Hybrid) HandleEvent(ev trace.Event) {
	h.HB.HandleEvent(ev)
	h.LS.HandleEvent(ev)
}

// Races implements Detector: the precise (HB) reports.
func (h *Hybrid) Races() []report.Race { return h.HB.Races() }

// RaceCount returns the number of precise (HB) reports, so a streaming
// ingest folds each defect when it manifests.
func (h *Hybrid) RaceCount() int { return h.HB.RaceCount() }

// Candidates returns lockset findings on addresses the HB detector did
// not confirm in this execution — the "might race under another
// schedule" set that makes post-facto triage noisy.
func (h *Hybrid) Candidates() []report.Race {
	confirmed := make(map[trace.Addr]bool)
	for _, r := range h.HB.Races() {
		confirmed[r.Second.Addr] = true
	}
	var out []report.Race
	for _, r := range h.LS.Races() {
		if !confirmed[r.Second.Addr] {
			out = append(out, r)
		}
	}
	return out
}
