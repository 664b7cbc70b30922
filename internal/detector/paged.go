package detector

import "unsafe"

// pagedCellsPerPage is the shadow-page granularity: cells are grouped
// into pages of this many consecutive dense indices, and eviction
// reclaims whole pages. 256 cells × 56 B of ftCell state = 14 KiB per
// full page — big enough that LRU bookkeeping is negligible per
// access, small enough that one eviction does not blow away a large
// fraction of the working set.
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

// shadowPage is the paging state of one page of FastTrack's shadow
// memory. A resident page owns a slab of cells, grown only to the
// highest slot the page has touched; an evicted page owns none.
type shadowPage struct {
	cells    []ftCell
	touch    uint64 // access tick of the last touch
	resident bool
	wasEver  bool // evicted at least once
}

// growSlab extends a page's slab to hold slot, returning the longer
// slab. Capacity doubles (at least to slot+1) and is capped at
// pagedCellsPerPage, so a full page's slab holds exactly one page of
// cells, with no append overshoot, while a page that touches only a
// few slots stays small. Every cell the slab newly exposes is zeroed:
// a slab reused from freeSlabs still holds its evicted page's cells
// past its length, and that history must never reach the new page.
func growSlab(cells []ftCell, slot int) []ftCell {
	if slot >= cap(cells) {
		n := max(2*cap(cells), slot+1)
		grown := make([]ftCell, len(cells), min(n, pagedCellsPerPage))
		copy(grown, cells)
		cells = grown
	}
	n := len(cells)
	cells = cells[:slot+1]
	clear(cells[n:])
	return cells
}

// SetPageBudget implements Evictor. Reset keeps the budget.
func (ft *FastTrack) SetPageBudget(pages int) {
	if pages < 0 {
		pages = 0
	}
	ft.maxPages = pages
}

// PageBytes implements Evictor: the cell slab of one full page. The
// real footprint also includes promoted reader lists, the interned
// report context and report storage, which is why callers budget
// pages at a fraction of their byte ceiling rather than all of it.
func (ft *FastTrack) PageBytes() int {
	return pagedCellsPerPage * int(unsafe.Sizeof(ftCell{}))
}

// LivePages implements Evictor.
func (ft *FastTrack) LivePages() int { return len(ft.resident) }

// faultPage is the slow path of the per-access page bookkeeping that
// cell runs: page pg is not resident (or the budget is exceeded), so
// fault it in with a slab from the freelist and evict past the budget.
// The caller stamps the page's touch tick afterwards; eviction never
// picks pg, so the order does not matter.
func (ft *FastTrack) faultPage(pg int) {
	for pg >= len(ft.pages) {
		ft.pages = append(ft.pages, shadowPage{})
	}
	p := &ft.pages[pg]
	if !p.resident {
		p.resident = true
		ft.resident = append(ft.resident, int32(pg))
		if n := len(ft.freeSlabs); n > 0 {
			p.cells = ft.freeSlabs[n-1]
			ft.freeSlabs[n-1] = nil
			ft.freeSlabs = ft.freeSlabs[:n-1]
		}
		if p.wasEver {
			ft.reloads++
		}
	}
	if ft.maxPages > 0 && len(ft.resident) > ft.maxPages {
		ft.evictColdest(pg)
	}
}

// evictColdest reclaims the least-recently-touched resident page other
// than keep (the page the current access needs), scanning only the
// resident pages. Ties break toward the lowest page index, keeping
// eviction order a pure function of the event stream.
func (ft *FastTrack) evictColdest(keep int) {
	at, victim := -1, -1
	var best uint64
	for i, pg := range ft.resident {
		p := &ft.pages[pg]
		if int(pg) == keep {
			continue
		}
		if victim == -1 || p.touch < best || (p.touch == best && int(pg) < victim) {
			at, victim, best = i, int(pg), p.touch
		}
	}
	if victim == -1 {
		return // budget of 1 with only the current page resident
	}
	p := &ft.pages[victim]
	for i := range p.cells {
		c := &p.cells[i]
		if !c.used() {
			continue
		}
		if c.readers != 0 {
			ft.demote(c)
		}
		ft.cellCount--
	}
	// The slab is parked as-is: growSlab zeroes every cell it exposes,
	// so a reused slab never leaks the evicted history.
	ft.freeSlabs = append(ft.freeSlabs, p.cells[:0])
	ft.resident[at] = ft.resident[len(ft.resident)-1]
	ft.resident = ft.resident[:len(ft.resident)-1]
	p.cells, p.resident, p.wasEver = nil, false, true
	ft.evictions++
}
