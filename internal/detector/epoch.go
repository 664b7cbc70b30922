package detector

import (
	"gorace/internal/report"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// Epoch is a lean FastTrack variant that keeps only epochs and
// adaptive read sets in shadow cells — no stacks, labels, or lock
// annotations — and counts races instead of building reports: Races
// synthesizes one minimal report per racy address, and Count keeps
// the pair total. It exists for the epochs-vs-vector-clocks ablation
// (DESIGN.md): the detection *verdicts* must match FastTrack exactly,
// at a fraction of the per-access cost.
type Epoch struct {
	hb
	verdicts
	cells []epochCell
}

// epochCell is one cell's shadow word, stored by value in a dense
// slice indexed by Addr. A cell is lazily initialized on first touch
// (seen=false) because the zero Epoch is not NoEpoch.
type epochCell struct {
	seen        bool
	write       vclock.Epoch
	writeAtomic bool
	// Plain and atomic reads are kept in separate read sets so the
	// atomic-vs-atomic suppression rule matches FastTrack verdicts.
	reads       vclock.ReadSet
	atomicReads vclock.ReadSet
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
	for i := range e.cells {
		c := &e.cells[i]
		c.seen = false
		// Inflated read clocks must come back to the pool now, not
		// lazily on the cell's next touch — a run that never revisits
		// this address would otherwise strand them.
		c.reads.ReleaseTo(e.pool)
		c.atomicReads.ReleaseTo(e.pool)
	}
	e.verdicts.reset()
}

// cell returns the shadow cell for a, initializing it on first touch.
// The pointer is only valid until the next cell call.
func (e *Epoch) cell(a trace.Addr) *epochCell {
	a = trace.Addr(e.addrIx.local(uint64(a)))
	for int(a) >= len(e.cells) {
		e.cells = append(e.cells, epochCell{})
	}
	c := &e.cells[a]
	if !c.seen {
		c.seen = true
		c.write = vclock.NoEpoch
		c.writeAtomic = false
		c.reads.ReleaseTo(e.pool)
		c.atomicReads.ReleaseTo(e.pool)
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
		if !c.write.IsNone() && c.write.TID() != ev.G && !c.write.LeqVC(cur) {
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
		if !c.write.IsNone() && c.write.TID() != ev.G && !c.write.LeqVC(cur) {
			if !(c.writeAtomic && ev.Op.IsAtomic()) {
				e.hit(ev.Addr)
			}
		}
		// Report every concurrent reader, matching FastTrack's
		// per-reader reporting. Atomic readers race with this write
		// only if the write is not atomic itself.
		c.reads.ForEach(func(r vclock.Epoch) {
			if r.TID() != ev.G && !r.LeqVC(cur) {
				e.hit(ev.Addr)
			}
		})
		if !ev.Op.IsAtomic() {
			c.atomicReads.ForEach(func(r vclock.Epoch) {
				if r.TID() != ev.G && !r.LeqVC(cur) {
					e.hit(ev.Addr)
				}
			})
		}
		c.write = vclock.MakeEpoch(ev.G, cur.Get(ev.G))
		c.writeAtomic = ev.Op.IsAtomic()
		// The write subsumes the read history; count the demotion only
		// when an inflated clock actually went back to the pool (cell
		// init and Reset also call ReleaseTo, but those are teardown).
		if c.reads.ReleaseTo(e.pool) {
			e.adapt.demotions++
		}
		if c.atomicReads.ReleaseTo(e.pool) {
			e.adapt.demotions++
		}
	}
}

// noteRead folds a read into an adaptive read set, counting the
// promotion when the set inflates and the fast path when the read is
// absorbed in epoch form.
func (e *Epoch) noteRead(rs *vclock.ReadSet, g vclock.TID, cur *vclock.VC) {
	wasEpoch := !rs.IsInflated()
	if rs.NotePooled(vclock.MakeEpoch(g, cur.Get(g)), cur, e.pool) {
		e.adapt.promotions++
	} else if wasEpoch {
		e.adapt.fastReads++
	}
}
