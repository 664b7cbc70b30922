package detector

import (
	"unsafe"

	"gorace/internal/trace"
)

// pagedCellsPerPage is the shadow-page granularity: cells are grouped
// into pages of this many consecutive dense indices, and eviction
// reclaims whole pages. 256 cells × 56 B of ftCell state = 14 KiB per
// full page — big enough that LRU bookkeeping is negligible per
// access, small enough that one eviction does not blow away a large
// fraction of the working set.
const pagedCellsPerPage = 256

// stablePage0 is the first id page's page number. Stable identities
// take cell indices from trace.MaxDenseID up, so id pages sit above
// every page a decoded stream's default-mode addresses can reach.
const stablePage0 = trace.MaxDenseID / pagedCellsPerPage

// evictedBits sizes the direct-mapped table of recently evicted stable
// identities that Reloads counts hits in: 1 << evictedBits words.
const evictedBits = 12

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
	wasEver        bool // a dense page evicted at least once
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
	if pg >= len(ft.pages) {
		// One growth, not one per page: a stable stream's first id page
		// is page stablePage0.
		ft.pages = append(ft.pages, make([]shadowPage, pg+1-len(ft.pages))...)
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

// stableCell returns the cell index of stable identity v: its slot on
// an id page, or, on its first touch since it was last released, the
// next slot of the fill page. A hit costs one index probe.
func (ft *FastTrack) stableCell(v uint64) uint64 {
	s, at := ft.addrIx.find(v)
	if s == 0 {
		s = ft.claimSlot() + 1
		ft.addrIx.insert(v, s-1, at)
		if ft.evicted != nil && ft.evicted[v*fibHash>>(64-evictedBits)] == v {
			ft.reloads++
		}
	}
	return trace.MaxDenseID - 1 + uint64(s)
}

// claimSlot hands out the next slot of the fill page as an index into
// the address index's keys: id page f holds keys f*256 … f*256+255 and
// is shadow page stablePage0+f. A full or evicted fill page is
// replaced by a released id page, or by a new one when none is free,
// so the id pages ever opened are bounded by the pages resident at
// once.
func (ft *FastTrack) claimSlot() uint32 {
	if ft.fill == noPage || ft.filled == pagedCellsPerPage {
		if n := len(ft.freeIDPages); n > 0 {
			ft.fill = ft.freeIDPages[n-1]
			ft.freeIDPages = ft.freeIDPages[:n-1]
		} else {
			ft.fill = int32(ft.idPages)
			ft.idPages++
		}
		ft.filled = 0
	}
	ft.filled++
	return uint32(ft.fill)*pagedCellsPerPage + uint32(ft.filled-1)
}

// releaseIDs removes the identities of evicted id page f from the
// address index, remembering each as recently evicted, and frees the
// page number for a later fill page. Only the fill page holds fewer
// than a full page of identities.
func (ft *FastTrack) releaseIDs(f int) {
	n := pagedCellsPerPage
	if f == int(ft.fill) {
		n, ft.fill = ft.filled, noPage
	}
	if ft.evicted == nil {
		ft.evicted = make([]uint64, 1<<evictedBits)
	}
	for k := uint32(f * pagedCellsPerPage); k < uint32(f*pagedCellsPerPage+n); k++ {
		v := ft.addrIx.keys[k]
		ft.evicted[v*fibHash>>(64-evictedBits)] = v
		ft.addrIx.remove(k)
	}
	ft.freeIDPages = append(ft.freeIDPages, int32(f))
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
	p.cells, p.used, p.resident = nil, 0, false
	if f := victim - stablePage0; f >= 0 && f < ft.idPages {
		ft.releaseIDs(f)
	} else {
		p.wasEver = true
	}
	ft.evictions++
}
