package detector

import (
	"gorace/internal/report"
	"gorace/internal/stack"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// access is a recorded prior access to a shadow cell, with everything
// a race report needs.
type access struct {
	g      vclock.TID
	gname  string
	time   uint32
	op     trace.Op
	stk    stack.Context
	label  string
	atomic bool
	locks  []string
	seq    uint64
}

func (a access) toReport(addr trace.Addr) report.Access {
	return report.Access{
		G: a.g, GName: a.gname, Op: a.op, Addr: addr, Seq: a.seq,
		Stack: a.stk, Label: a.label, Atomic: a.atomic, Locks: a.locks,
	}
}

// ftCell is the shadow state of one memory cell. Cells live by value
// in a dense slice indexed by Addr, so looking one up is a bounds
// check, not a map probe, and a fresh cell costs no allocation.
//
// The read history is adaptive, FastTrack style: while a single
// goroutine reads the cell — by far the common case — the history is
// the inline `read` slot and costs nothing beyond the cell itself.
// The first read by a second goroutine *promotes* the cell to the
// `readers` list (drawn from the detector's freelist); the next write
// *demotes* it back, releasing the list for reuse by other cells.
// Unlike textbook FastTrack, an *ordered* read by a second goroutine
// still promotes: this detector reports one race per retained reader
// with that reader's metadata, so collapsing ordered readers into one
// slot would change which reports a later concurrent write produces.
type ftCell struct {
	seen     bool
	hasWrite bool
	hasRead  bool
	write    access
	// read is the epoch-form read slot: the most recent read while at
	// most one goroutine has read since the last write.
	read access
	// readers is the promoted (vector-clock-form) read history: the
	// most recent read per goroutine since the last write, in first-
	// read order. nil while the cell is in epoch form.
	readers []access
	reports int
}

// FastTrack is the happens-before race detector. It maintains one
// vector clock per goroutine, one per synchronization object, and
// per-cell access histories; a race is two accesses to the same cell,
// at least one a write, not both atomic, with neither ordered before
// the other.
//
// All shadow state is held in dense slices keyed by the scheduler's
// small dense TIDs, ObjIDs, and Addrs, and vector clocks come from a
// Pool, so the per-event path performs no steady-state allocations.
// Reset reuses all of it for the next run.
//
// Shadow memory is paged (the Evictor interface): the dense cell slice
// is tracked in pages of pagedCellsPerPage cells, each carrying a
// last-touch tick, and under a page budget the least-recently-touched
// page is reclaimed whenever the budget is exceeded. Evicted cells lose
// their access history; a re-accessed evicted address restarts in
// epoch form as if never seen, so races straddling an eviction are
// missed (false negatives only — clearing history can never fabricate
// a happens-before violation, so every report remains one the
// unbudgeted detector would also make). Evictions and Reloads in Stats
// quantify the tradeoff. The clock ticks once per access, not on
// wall-time or GC pressure: the same event stream under the same
// budget always evicts the same pages at the same points. With no
// budget (the default) nothing is ever evicted.
type FastTrack struct {
	pool      *vclock.Pool
	clocks    []*vclock.VC
	objClocks []*vclock.VC
	objCount  int
	cells     []ftCell
	cellCount int
	addrIx    sparseIndex
	objIx     sparseIndex
	locks     *lockTracker
	races     []report.Race
	stats     statCounter
	adapt     adaptCounter
	// freeReaders recycles demoted readers lists: only currently
	// promoted cells hold list storage, and a demotion hands the
	// backing array to the next promotion anywhere in the detector.
	freeReaders [][]access
	// Paging state (paged.go): the budget survives Reset, the rest
	// rewinds with it.
	maxPages           int
	tick               uint64
	pages              []shadowPage
	live               int
	evictions, reloads int
	// MaxReportsPerCell caps reports from a single cell so a racy
	// loop does not flood the output (default 8).
	MaxReportsPerCell int
}

// NewFastTrack returns a fresh happens-before detector.
func NewFastTrack() *FastTrack {
	return &FastTrack{
		pool:              vclock.NewPool(),
		locks:             newLockTracker(),
		MaxReportsPerCell: 8,
	}
}

// Name implements Detector.
func (ft *FastTrack) Name() string { return "fasttrack-hb" }

// Races implements Detector.
func (ft *FastTrack) Races() []report.Race { return ft.races }

// Candidates implements Detector; the HB detector is precise and has
// no may-not-manifest findings.
func (ft *FastTrack) Candidates() []report.Race { return nil }

// RaceCount returns the number of reports.
func (ft *FastTrack) RaceCount() int { return len(ft.races) }

// Reset implements Resetter: it clears all detection state in place,
// releasing clocks to the pool and retaining every buffer, so the
// detector can consume another run without reallocating its shadow
// state. Slices previously returned by Races are invalidated.
func (ft *FastTrack) Reset() {
	for i, c := range ft.clocks {
		if c != nil {
			ft.pool.Release(c)
			ft.clocks[i] = nil
		}
	}
	ft.clocks = ft.clocks[:0]
	for i, c := range ft.objClocks {
		if c != nil {
			ft.pool.Release(c)
			ft.objClocks[i] = nil
		}
	}
	ft.objClocks = ft.objClocks[:0]
	ft.objCount = 0
	for i := range ft.cells {
		c := &ft.cells[i]
		c.seen, c.hasWrite, c.hasRead, c.reports = false, false, false, 0
		c.write, c.read = access{}, access{}
		if c.readers != nil {
			// Teardown, not a demotion: the counters describe the
			// event stream, so Reset does not touch them.
			ft.releaseReaders(c.readers)
			c.readers = nil
		}
	}
	ft.cellCount = 0
	ft.addrIx.reset()
	ft.objIx.reset()
	ft.locks.reset()
	ft.races = ft.races[:0]
	ft.stats = statCounter{}
	ft.adapt = adaptCounter{}
	ft.tick = 0
	ft.pages = ft.pages[:0]
	ft.live = 0
	ft.evictions, ft.reloads = 0, 0
}

// acquireReaders pops a recycled readers list, or allocates the first
// time a promotion outruns the freelist.
func (ft *FastTrack) acquireReaders() []access {
	if n := len(ft.freeReaders); n > 0 {
		s := ft.freeReaders[n-1]
		ft.freeReaders[n-1] = nil
		ft.freeReaders = ft.freeReaders[:n-1]
		return s
	}
	return make([]access, 0, 4)
}

// releaseReaders clears a demoted list (dropping its stack and lock
// references) and parks it for the next promotion.
func (ft *FastTrack) releaseReaders(s []access) {
	for i := range s {
		s[i] = access{}
	}
	ft.freeReaders = append(ft.freeReaders, s[:0])
}

// clockOf returns g's clock, initializing it with its own component
// at 1 (each goroutine begins in its own epoch).
func (ft *FastTrack) clockOf(g vclock.TID) *vclock.VC {
	for int(g) >= len(ft.clocks) {
		ft.clocks = append(ft.clocks, nil)
	}
	if ft.clocks[g] == nil {
		c := ft.pool.Acquire()
		c.Set(g, 1)
		ft.clocks[g] = c
	}
	return ft.clocks[g]
}

func (ft *FastTrack) objClock(o trace.ObjID) *vclock.VC {
	o = trace.ObjID(ft.objIx.local(uint64(o)))
	for int(o) >= len(ft.objClocks) {
		ft.objClocks = append(ft.objClocks, nil)
	}
	if ft.objClocks[o] == nil {
		ft.objClocks[o] = ft.pool.Acquire()
		ft.objCount++
	}
	return ft.objClocks[o]
}

// cell returns the shadow cell for a, after the access's page
// bookkeeping: one tick of the paging clock (cell runs exactly once per
// access), and the touch of the cell's page, faulting it in first if
// needed. The returned pointer is only valid until the next cell call
// (growth may move the backing array).
func (ft *FastTrack) cell(a trace.Addr) *ftCell {
	i := int(ft.addrIx.local(uint64(a)))
	ft.tick++
	pg := i / pagedCellsPerPage
	if pg >= len(ft.pages) || !ft.pages[pg].resident || (ft.maxPages > 0 && ft.live > ft.maxPages) {
		ft.faultPage(pg)
	}
	ft.pages[pg].touch = ft.tick
	for i >= len(ft.cells) {
		ft.cells = append(ft.cells, ftCell{})
	}
	c := &ft.cells[i]
	if !c.seen {
		c.seen = true
		ft.cellCount++
	}
	return c
}

// HandleEvent implements trace.Listener.
func (ft *FastTrack) HandleEvent(ev trace.Event) {
	ft.stats.note(ev)
	switch ev.Op {
	case trace.OpFork:
		parent := ft.clockOf(ev.G)
		child := ft.pool.Acquire()
		parent.CopyInto(child)
		child.Tick(ev.Child)
		for int(ev.Child) >= len(ft.clocks) {
			ft.clocks = append(ft.clocks, nil)
		}
		ft.clocks[ev.Child] = child
		parent.Tick(ev.G)

	case trace.OpAcquire:
		ft.locks.handle(ev)
		ft.objClock(ev.Obj).JoinInto(ft.clockOf(ev.G))

	case trace.OpRelease:
		if ft.locks.handle(ev) && ev.Kind == trace.KindRWRead {
			// Read-mode release: lockset bookkeeping only. The HB
			// reader→writer edge travels through the RWMutex's
			// internal read-release object instead.
			return
		}
		ft.clockOf(ev.G).JoinInto(ft.objClock(ev.Obj))
		ft.clockOf(ev.G).Tick(ev.G)

	case trace.OpRead, trace.OpAtomicLoad:
		ft.read(ev)

	case trace.OpWrite, trace.OpAtomicStore, trace.OpAtomicRMW:
		ft.write(ev)
	}
}

func (ft *FastTrack) newAccess(ev trace.Event) access {
	return access{
		g: ev.G, gname: ev.GName, time: ft.clockOf(ev.G).Get(ev.G),
		op: ev.Op, stk: ev.Stack, label: ev.Label,
		atomic: ev.Op.IsAtomic(), locks: ft.locks.heldLabels(ev.G), seq: ev.Seq,
	}
}

func (ft *FastTrack) read(ev trace.Event) {
	c := ft.cell(ev.Addr)
	cur := ft.clockOf(ev.G)
	if c.hasWrite && c.write.g != ev.G && c.write.time > cur.Get(c.write.g) {
		if !(c.write.atomic && ev.Op.IsAtomic()) {
			ft.report(ev, c, c.write)
		}
	}
	a := ft.newAccess(ev)
	if c.readers != nil {
		// Promoted: maintain the per-goroutine slot in first-read
		// order, exactly the pre-adaptive list behavior.
		for i := range c.readers {
			if c.readers[i].g == ev.G {
				c.readers[i] = a
				return
			}
		}
		c.readers = append(c.readers, a)
		return
	}
	if !c.hasRead || c.read.g == ev.G {
		// Epoch-form fast path: first reader, or the owning goroutine
		// reading again.
		c.read, c.hasRead = a, true
		ft.adapt.fastReads++
		return
	}
	// Second distinct reader: promote. The prior slot goes first so
	// the list order matches the pre-adaptive insertion order.
	c.readers = append(ft.acquireReaders(), c.read, a)
	c.read, c.hasRead = access{}, false
	ft.adapt.promotions++
}

func (ft *FastTrack) write(ev trace.Event) {
	c := ft.cell(ev.Addr)
	cur := ft.clockOf(ev.G)
	if c.hasWrite && c.write.g != ev.G && c.write.time > cur.Get(c.write.g) {
		if !(c.write.atomic && ev.Op.IsAtomic()) {
			ft.report(ev, c, c.write)
		}
	}
	if c.readers != nil {
		for i := range c.readers {
			r := &c.readers[i]
			if r.g == ev.G {
				continue
			}
			if r.time > cur.Get(r.g) && !(r.atomic && ev.Op.IsAtomic()) {
				ft.report(ev, c, *r)
			}
		}
		// Demote: the write subsumes the ordered read history and the
		// concurrent readers were just reported, so the list storage
		// goes back to the freelist for the next promotion.
		ft.releaseReaders(c.readers)
		c.readers = nil
		ft.adapt.demotions++
	} else if c.hasRead {
		if r := c.read; r.g != ev.G && r.time > cur.Get(r.g) && !(r.atomic && ev.Op.IsAtomic()) {
			ft.report(ev, c, r)
		}
	}
	c.read, c.hasRead = access{}, false
	c.write = ft.newAccess(ev)
	c.hasWrite = true
}

func (ft *FastTrack) report(ev trace.Event, c *ftCell, prior access) {
	if c.reports >= ft.MaxReportsPerCell {
		return
	}
	c.reports++
	second := ft.newAccess(ev)
	ft.races = append(ft.races, report.Race{
		First:    prior.toReport(ev.Addr),
		Second:   second.toReport(ev.Addr),
		Detector: ft.Name(),
		Seq:      ev.Seq,
	})
}
