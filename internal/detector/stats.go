package detector

import (
	"fmt"

	"gorace/internal/trace"
)

// Stats summarizes the work a detector performed, the denominator of
// the overhead story: TSan's cost scales with instrumented accesses
// and the shadow state they allocate ("memory usage increases by
// 5×-10×", §1).
//
// The adaptive-representation counters (Promotions, Demotions,
// FastPathReads) expose how often the epoch↔vector-clock shadow
// machinery left the cheap epoch form; the sampling counters
// (CheckedAccesses, SkippedAccesses) expose how much of the access
// stream a sampled run actually inspected. docs/DETECTORS.md glosses
// every field and how to read anomalies in them.
type Stats struct {
	Events     int // total events consumed
	Accesses   int // plain + atomic memory accesses
	SyncOps    int // acquire/release edges
	Cells      int // shadow cells allocated
	SyncClocks int // synchronization-object clocks allocated
	Goroutines int // goroutine clocks allocated
	Reports    int // races reported (or counted)

	// Promotions counts epoch→vector-clock shadow-cell promotions: a
	// cell's read history left the one-word epoch form because a
	// second goroutine read it in the same write-free span.
	Promotions int
	// Demotions counts vector-clock→epoch demotions: a write
	// dominated a promoted cell's read history and collapsed it back
	// to epoch form, releasing the clock to the pool.
	Demotions int
	// FastPathReads counts read-history updates absorbed in epoch
	// form (first read, or a repeat read by the owning goroutine) —
	// FastTrack's O(1) common case. Healthy workloads keep this well
	// above 90% of reads; see docs/DETECTORS.md for tuning.
	FastPathReads int

	// CheckedAccesses counts accesses the detection logic actually
	// inspected. Without sampling it equals Accesses; under a
	// sample:<n> gate it is roughly Accesses/n.
	CheckedAccesses int
	// SkippedAccesses counts accesses the sampling gate dropped
	// before they reached the detector (zero without sampling).
	SkippedAccesses int

	// Evictions counts shadow pages reclaimed under a page budget
	// (FastTrack's Evictor, set by a streaming memory ceiling): every
	// cell on an evicted page loses its access history, so races
	// against those prior accesses can no longer be reported — the
	// documented soundness tradeoff of bounded-memory streaming
	// (docs/STREAMING.md). Zero for detectors without paged shadow
	// state and for runs that never hit their budget.
	Evictions int
	// Reloads counts returns after eviction: evicted default-mode
	// pages re-faulted by a later access, plus stable identities
	// touched again after their page was evicted, as far as a small
	// table of recently evicted identities remembers them (so a lower
	// bound). Either way the cells restart with empty (epoch-form)
	// histories. A high Reloads/Evictions ratio means the ceiling is
	// evicting hot state and the stream is likely missing races.
	Reloads int
}

// String renders the counters on one line for logs and CLI output.
func (s Stats) String() string {
	line := fmt.Sprintf("events=%d accesses=%d syncs=%d cells=%d objclocks=%d goroutines=%d reports=%d",
		s.Events, s.Accesses, s.SyncOps, s.Cells, s.SyncClocks, s.Goroutines, s.Reports)
	line += fmt.Sprintf(" promotions=%d demotions=%d fastreads=%d",
		s.Promotions, s.Demotions, s.FastPathReads)
	if s.SkippedAccesses > 0 {
		line += fmt.Sprintf(" checked=%d skipped=%d", s.CheckedAccesses, s.SkippedAccesses)
	}
	if s.Evictions > 0 || s.Reloads > 0 {
		line += fmt.Sprintf(" evictions=%d reloads=%d", s.Evictions, s.Reloads)
	}
	return line
}

// statCounter wraps the event-shape counters shared by detectors.
type statCounter struct {
	events, accesses, syncOps int
}

func (c *statCounter) note(ev *trace.Event) {
	c.events++
	if ev.Op.IsAccess() {
		c.accesses++
	}
	if ev.Op == trace.OpAcquire || ev.Op == trace.OpRelease {
		c.syncOps++
	}
}

// adaptCounter tracks the adaptive shadow-representation transitions
// shared by the epoch-based detectors (fasttrack, epoch, djit).
type adaptCounter struct {
	promotions, demotions, fastReads int
}

// fill copies the shared counters into a Stats snapshot, defaulting
// CheckedAccesses to the full access count (no sampling at this
// layer; the Sampled wrapper overrides the split).
func fill(s Stats, c statCounter, a adaptCounter) Stats {
	s.Events = c.events
	s.Accesses = c.accesses
	s.SyncOps = c.syncOps
	s.Promotions = a.promotions
	s.Demotions = a.demotions
	s.FastPathReads = a.fastReads
	s.CheckedAccesses = c.accesses
	return s
}

// Stats reports the Hybrid detector's combined work counters. Both
// sides consume the same event stream, so the event-shape counters
// come from the HB side; shadow state and reports are summed. The
// adaptive counters come from the HB side alone (Eraser keeps lockset
// state, not clock histories).
func (h *Hybrid) Stats() Stats {
	hb, ls := h.HB.Stats(), h.LS.Stats()
	hb.Cells += ls.Cells
	hb.Reports += ls.Reports
	return hb
}

// Stats reports the Eraser detector's work counters. Eraser tracks
// locksets, not clocks, so the adaptive promotion counters are always
// zero.
func (e *Eraser) Stats() Stats {
	return fill(Stats{
		Cells:   e.cellCount,
		Reports: len(e.races),
	}, e.stats, adaptCounter{})
}
