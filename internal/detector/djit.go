package detector

import (
	"gorace/internal/report"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// DJIT is the pre-FastTrack vector-clock detector (DJIT+ of
// Pozniansky & Schuster): every shadow cell holds two *full* vector
// clocks — last-write times and last-read times per goroutine. It is
// the baseline for the epochs-vs-vector-clocks ablation: verdicts
// match the epoch detector, but every access pays O(goroutines)
// instead of O(1) in the common case.
type DJIT struct {
	hb
	verdicts
	cells cellTable[djitCell]
}

// djitCell holds the four per-cell histories by value, in a
// cellTable. Each is a vclock.History updated with Set: one packed
// epoch word while a single goroutine touches it, inflated to a pooled
// full vector clock on the first second-goroutine touch. Set preserves
// every component exactly, so DJIT's per-component verdict counts are
// unchanged — only the representation (and its cost) adapts. The zero
// value is a usable empty history, so a fresh cell needs no
// initialization and no allocation.
type djitCell struct {
	seen         bool
	writes       vclock.History // per-goroutine last write time
	reads        vclock.History // per-goroutine last plain-read time
	atomicWrites vclock.History
	atomicReads  vclock.History
}

// NewDJIT returns a fresh DJIT+ detector.
func NewDJIT() *DJIT {
	return &DJIT{hb: newHB(), verdicts: newVerdicts()}
}

// Name implements Detector.
func (d *DJIT) Name() string { return "djit-vc" }

// Races implements Detector: like the epoch detector, DJIT counts
// races without report metadata and synthesizes one stackless report
// per racy address.
func (d *DJIT) Races() []report.Race { return d.races(d.Name()) }

// Stats implements Detector. DJIT never clears a cell's history, so
// its Demotions stay zero within a run — the contrast with FastTrack's
// demotion stream is the ablation's point.
func (d *DJIT) Stats() Stats { return d.statsOf(d.count) }

// Reset implements Detector: shadow state is zeroed in place (history
// clocks keep their backing arrays) and goroutine/object clocks return
// to the pool.
func (d *DJIT) Reset() {
	d.hb.reset()
	d.cells.reset(func(c *djitCell) {
		c.seen = false
		// Inflated histories return their clocks to the pool now;
		// teardown is not a demotion, so the counters stay untouched.
		c.writes.ReleaseTo(d.pool)
		c.reads.ReleaseTo(d.pool)
		c.atomicWrites.ReleaseTo(d.pool)
		c.atomicReads.ReleaseTo(d.pool)
	})
	d.verdicts.reset()
}

// cell returns the shadow cell for a. The pointer is only valid until
// the next cell call.
func (d *DJIT) cell(a trace.Addr) *djitCell {
	c := d.cells.at(a)
	if !c.seen {
		c.seen = true
		d.cellCount++
	}
	return c
}

// HandleEvent implements trace.Listener.
func (d *DJIT) HandleEvent(ev trace.Event) {
	d.stats.note(&ev)
	switch ev.Op {
	case trace.OpFork:
		d.fork(&ev)

	case trace.OpAcquire:
		d.acquire(&ev)

	case trace.OpRelease:
		d.release(&ev)

	case trace.OpRead, trace.OpAtomicLoad:
		c := d.cell(ev.Addr)
		cur := d.clockOf(ev.G)
		d.countConcurrent(&c.writes, cur, ev)
		if !ev.Op.IsAtomic() {
			// A plain read also conflicts with concurrent atomic writes.
			d.countConcurrent(&c.atomicWrites, cur, ev)
			d.noteRead(&c.reads, ev.G, cur.Get(ev.G))
		} else {
			d.noteRead(&c.atomicReads, ev.G, cur.Get(ev.G))
		}

	case trace.OpWrite, trace.OpAtomicStore, trace.OpAtomicRMW:
		c := d.cell(ev.Addr)
		cur := d.clockOf(ev.G)
		d.countConcurrent(&c.writes, cur, ev)
		d.countConcurrent(&c.reads, cur, ev)
		if !ev.Op.IsAtomic() {
			d.countConcurrent(&c.atomicWrites, cur, ev)
			d.countConcurrent(&c.atomicReads, cur, ev)
			if c.writes.Set(ev.G, cur.Get(ev.G), d.pool) {
				d.adapt.promotions++
			}
		} else {
			if c.atomicWrites.Set(ev.G, cur.Get(ev.G), d.pool) {
				d.adapt.promotions++
			}
		}
	}
}

// noteRead folds a read into an adaptive read history, counting the
// promotion when the history inflates and the fast path when it stays in
// (or enters) epoch form.
func (d *DJIT) noteRead(hist *vclock.History, g vclock.TID, t uint32) {
	wasEpoch := !hist.IsInflated()
	if hist.Set(g, t, d.pool) {
		d.adapt.promotions++
	} else if wasEpoch {
		d.adapt.fastReads++
	}
}

// countConcurrent tallies components of hist that are ahead of cur —
// prior accesses by other goroutines not ordered before this one.
func (d *DJIT) countConcurrent(hist *vclock.History, cur *vclock.VC, ev trace.Event) {
	hist.ForEach(func(t vclock.TID, ts uint32) {
		if t == ev.G {
			return
		}
		if ts > cur.Get(t) {
			d.hit(ev.Addr)
		}
	})
}
