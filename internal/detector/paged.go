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
// highest slot the page has touched, and sits on the detector's LRU
// list; an evicted page owns none and is on no list.
type shadowPage struct {
	cells []ftCell
	// prev and next link the resident pages from least to most
	// recently touched (noPage ends the list).
	prev, next int32
	// used counts the slab's cells holding access history, promoted
	// those holding a readers list, so eviction releases a page in
	// O(1) unless it must hand reader lists back.
	used, promoted uint16
	resident       bool
	wasEver        bool // evicted at least once
}

// noPage is the nil page index of the LRU list.
const noPage = -1

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
func (ft *FastTrack) LivePages() int { return ft.nResident }

// faultPage is the slow path of the per-access page bookkeeping that
// cell runs: page pg is not resident (or the budget is exceeded), so
// fault it in with a slab from the freelist, as the most recently
// touched page, and evict past the budget.
func (ft *FastTrack) faultPage(pg int) {
	for pg >= len(ft.pages) {
		ft.pages = append(ft.pages, shadowPage{})
	}
	p := &ft.pages[pg]
	if !p.resident {
		p.resident = true
		ft.nResident++
		ft.linkTail(pg)
		if n := len(ft.freeSlabs); n > 0 {
			p.cells = ft.freeSlabs[n-1]
			ft.freeSlabs[n-1] = nil
			ft.freeSlabs = ft.freeSlabs[:n-1]
		}
		if p.wasEver {
			ft.reloads++
		}
	}
	if ft.maxPages > 0 && ft.nResident > ft.maxPages {
		ft.evictColdest(pg)
	}
}

// linkTail appends resident page pg to the LRU list as its most
// recently touched page.
func (ft *FastTrack) linkTail(pg int) {
	p := &ft.pages[pg]
	p.prev, p.next = ft.tail, noPage
	if ft.tail == noPage {
		ft.head = int32(pg)
	} else {
		ft.pages[ft.tail].next = int32(pg)
	}
	ft.tail = int32(pg)
}

// unlink removes resident page pg from the LRU list.
func (ft *FastTrack) unlink(pg int) {
	p := &ft.pages[pg]
	if p.prev == noPage {
		ft.head = p.next
	} else {
		ft.pages[p.prev].next = p.next
	}
	if p.next == noPage {
		ft.tail = p.prev
	} else {
		ft.pages[p.next].prev = p.prev
	}
}

// evictColdest reclaims the least-recently-touched resident page other
// than keep (the page the current access needs): the LRU list's head,
// or the page after it when the head is keep, which happens only after
// the budget was lowered below the resident count. Every access moves
// its page to the tail, so the list is exactly the pages' touch order,
// and eviction order is a pure function of the event stream.
func (ft *FastTrack) evictColdest(keep int) {
	victim := int(ft.head)
	if victim == keep {
		victim = int(ft.pages[victim].next)
	}
	if victim == noPage {
		return // budget of 1 with only the current page resident
	}
	p := &ft.pages[victim]
	ft.cellCount -= int(p.used)
	for i := 0; p.promoted > 0; i++ {
		if c := &p.cells[i]; c.readers != 0 {
			ft.demote(p, c)
		}
	}
	// The slab is parked as-is: growSlab zeroes every cell it exposes,
	// so a reused slab never leaks the evicted history.
	ft.freeSlabs = append(ft.freeSlabs, p.cells[:0])
	ft.unlink(victim)
	ft.nResident--
	p.cells, p.used, p.resident, p.wasEver = nil, 0, false, true
	ft.evictions++
}
