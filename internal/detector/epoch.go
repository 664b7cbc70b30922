package detector

import (
	"gorace/internal/report"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// Epoch is a lean FastTrack variant that keeps only epochs and
// adaptive read histories in shadow cells — no stacks, labels, or lock
// annotations — and counts races instead of building reports: Races
// synthesizes one minimal report per racy address, and Count keeps
// the pair total. It exists for the epochs-vs-vector-clocks ablation
// (DESIGN.md): the detection *verdicts* must match FastTrack exactly,
// at a fraction of the per-access cost.
type Epoch struct {
	hb
	verdicts
	cells cellTable[epochCell]
}

// epochCell is one cell's shadow word, stored by value in a
// cellTable. Its zero value is a fresh cell: the zero Epoch is "no
// write" and the zero History "no reads"; seen only marks the cell
// as counted in Cells.
type epochCell struct {
	seen        bool
	write       vclock.Epoch
	writeAtomic bool
	// Plain and atomic reads are kept in separate histories so the
	// atomic-vs-atomic suppression rule matches FastTrack verdicts.
	reads       vclock.History
	atomicReads vclock.History
}

// NewEpoch returns a fresh epoch-based detector.
func NewEpoch() *Epoch {
	return &Epoch{hb: newHB(), verdicts: newVerdicts()}
}

// Name implements Detector.
func (e *Epoch) Name() string { return "fasttrack-epoch" }

// Races implements Detector: one stackless report per racy address.
func (e *Epoch) Races() []report.Race { return e.races(e.Name()) }

// Stats implements Detector.
func (e *Epoch) Stats() Stats { return e.statsOf(e.count) }

// Reset implements Detector: all shadow state is cleared in place and
// clocks return to the pool, readying the detector for another run
// without reallocation.
func (e *Epoch) Reset() {
	e.hb.reset()
	e.cells.reset(func(c *epochCell) {
		// Inflated read clocks must come back to the pool now — a run
		// that never revisits this address would otherwise strand
		// them. Teardown is not a demotion, so no counter moves.
		c.reads.ReleaseTo(e.pool)
		c.atomicReads.ReleaseTo(e.pool)
		*c = epochCell{}
	})
	e.verdicts.reset()
}

// cell returns the shadow cell for a, counting it on first touch.
// The pointer is only valid until the next cell call.
func (e *Epoch) cell(a trace.Addr) *epochCell {
	c := e.cells.at(a)
	if !c.seen {
		c.seen = true
		e.cellCount++
	}
	return c
}

// HandleEvent implements trace.Listener.
func (e *Epoch) HandleEvent(ev trace.Event) {
	e.stats.note(ev)
	switch ev.Op {
	case trace.OpFork:
		e.fork(ev)

	case trace.OpAcquire:
		e.acquire(ev)

	case trace.OpRelease:
		e.release(ev)

	case trace.OpRead, trace.OpAtomicLoad:
		c := e.cell(ev.Addr)
		cur := e.clockOf(ev.G)
		if c.write.TID() != ev.G && !c.write.LeqVC(cur) {
			if !(c.writeAtomic && ev.Op.IsAtomic()) {
				e.hit(ev.Addr)
			}
		}
		if ev.Op.IsAtomic() {
			e.noteRead(&c.atomicReads, ev.G, cur)
		} else {
			e.noteRead(&c.reads, ev.G, cur)
		}

	case trace.OpWrite, trace.OpAtomicStore, trace.OpAtomicRMW:
		c := e.cell(ev.Addr)
		cur := e.clockOf(ev.G)
		if c.write.TID() != ev.G && !c.write.LeqVC(cur) {
			if !(c.writeAtomic && ev.Op.IsAtomic()) {
				e.hit(ev.Addr)
			}
		}
		// Report every concurrent reader, matching FastTrack's
		// per-reader reporting. Atomic readers race with this write
		// only if the write is not atomic itself.
		hitReader := func(g vclock.TID, t uint32) {
			if g != ev.G && t > cur.Get(g) {
				e.hit(ev.Addr)
			}
		}
		c.reads.ForEach(hitReader)
		if !ev.Op.IsAtomic() {
			c.atomicReads.ForEach(hitReader)
		}
		c.write = vclock.MakeEpoch(ev.G, cur.Get(ev.G))
		c.writeAtomic = ev.Op.IsAtomic()
		// The write subsumes the read history; count the demotion only
		// when an inflated clock actually went back to the pool (Reset
		// also calls ReleaseTo, but that is teardown).
		if c.reads.ReleaseTo(e.pool) {
			e.adapt.demotions++
		}
		if c.atomicReads.ReleaseTo(e.pool) {
			e.adapt.demotions++
		}
	}
}

// noteRead folds a read into a read history under FastTrack's
// read-share rule, counting the promotion when the history inflates
// and the fast path when the read is absorbed in epoch form.
func (e *Epoch) noteRead(rs *vclock.History, g vclock.TID, cur *vclock.VC) {
	wasEpoch := !rs.IsInflated()
	if rs.NoteRead(g, cur.Get(g), cur, e.pool) {
		e.adapt.promotions++
	} else if wasEpoch {
		e.adapt.fastReads++
	}
}
