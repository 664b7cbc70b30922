package detector

import "unsafe"

// pagedCellsPerPage is the shadow-page granularity: cells are grouped
// into pages of this many consecutive dense indices, and eviction
// reclaims whole pages. 256 cells × ~¼ KiB of ftCell state ≈ 64 KiB
// per page — big enough that LRU bookkeeping is negligible per access,
// small enough that one eviction does not blow away a large fraction
// of the working set.
const pagedCellsPerPage = 256

// Evictor is implemented by detectors whose shadow memory is paged and
// evictable, the hook streaming ingest (internal/stream) uses to hold
// a detector under a hard memory ceiling. A budget of 0 means
// unbounded — the detector then never evicts and reports exactly what
// it would with no paging at all.
type Evictor interface {
	// SetPageBudget bounds the resident shadow pages; exceeding it
	// evicts least-recently-touched pages. 0 removes the bound.
	SetPageBudget(pages int)
	// PageBytes returns the approximate heap footprint of one resident
	// page, the unit callers divide a byte ceiling by.
	PageBytes() int
	// LivePages returns the number of currently resident pages.
	LivePages() int
}

// shadowPage is the paging state of one page of FastTrack's dense cell
// slice.
type shadowPage struct {
	touch    uint64 // access tick of the last touch
	resident bool
	wasEver  bool // evicted at least once
}

// SetPageBudget implements Evictor. Reset keeps the budget.
func (ft *FastTrack) SetPageBudget(pages int) {
	if pages < 0 {
		pages = 0
	}
	ft.maxPages = pages
}

// PageBytes implements Evictor: the dense cell state of one page. The
// real footprint also includes promoted reader lists and report
// storage, which is why callers budget pages at a fraction of their
// byte ceiling rather than all of it.
func (ft *FastTrack) PageBytes() int {
	return pagedCellsPerPage * int(unsafe.Sizeof(ftCell{}))
}

// LivePages implements Evictor.
func (ft *FastTrack) LivePages() int { return ft.live }

// faultPage is the slow path of the per-access page bookkeeping that
// cell runs: page pg is not resident (or the budget is exceeded), so
// fault it in and evict past the budget. The caller stamps the page's
// touch tick afterwards; eviction never picks pg, so the order does
// not matter.
func (ft *FastTrack) faultPage(pg int) {
	for pg >= len(ft.pages) {
		ft.pages = append(ft.pages, shadowPage{})
	}
	p := &ft.pages[pg]
	if !p.resident {
		p.resident = true
		ft.live++
		if p.wasEver {
			ft.reloads++
		}
	}
	if ft.maxPages > 0 && ft.live > ft.maxPages {
		ft.evictColdest(pg)
	}
}

// evictColdest reclaims the least-recently-touched resident page other
// than keep (the page the current access needs). Ties break toward the
// lowest page index, keeping eviction order a pure function of the
// event stream.
func (ft *FastTrack) evictColdest(keep int) {
	victim, best := -1, uint64(0)
	for pg, p := range ft.pages {
		if !p.resident || pg == keep {
			continue
		}
		if victim == -1 || p.touch < best {
			victim, best = pg, p.touch
		}
	}
	if victim == -1 {
		return // budget of 1 with only the current page resident
	}
	lo := victim * pagedCellsPerPage
	hi := lo + pagedCellsPerPage
	if hi > len(ft.cells) {
		hi = len(ft.cells)
	}
	for i := lo; i < hi; i++ {
		c := &ft.cells[i]
		if !c.seen {
			continue
		}
		if c.readers != nil {
			ft.releaseReaders(c.readers)
		}
		*c = ftCell{}
		ft.cellCount--
	}
	ft.pages[victim].resident = false
	ft.pages[victim].wasEver = true
	ft.live--
	ft.evictions++
}
