package detector

import (
	"unsafe"

	"gorace/internal/report"
	"gorace/internal/stack"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// ftAccess is a recorded prior access to a shadow cell: who, when
// (the goroutine's own clock component) and the event's sequence
// number, plus an index into the detector's interned report context.
// It holds no pointers, so shadow memory is invisible to the garbage
// collector's scan and write barriers.
type ftAccess struct {
	seq    uint64
	g      vclock.TID
	time   uint32
	meta   uint32 // index into FastTrack.metas; 0 means no access
	atomic bool
}

// ftMeta is the report context of an access, interned per detector:
// everything report.Access carries beyond the goroutine, address and
// sequence number. Distinct entries grow with access sites ×
// goroutine names × lock sets, not with events.
type ftMeta struct {
	key          metaKey
	gname, label string // the strings key.gname and key.label point at
	stk          stack.Context
}

// metaKey indexes ftMeta entries. The goroutine name and label enter by
// address and length, so neither an index probe nor a key compare reads
// a byte of them: a stream that defines a huge name once and then
// misses the cache on every event still costs O(1) per miss. The
// entry's ftMeta holds the strings themselves, which keeps their
// addresses from being reused while indexed. Equal strings at other
// addresses only cost a duplicate entry. The stack enters as
// stackHash, so a context re-captured with the same frames (the
// scheduler captures a fresh one whenever the line moves) finds its
// entry again; a lookup confirms the frames themselves with sameFrames.
type metaKey struct {
	gname, label strKey
	stack        uint64
	locks        uint32 // lockTracker label-set id
	op           trace.Op
}

// strKey identifies a string by where its bytes live and how many
// there are.
type strKey struct {
	p uintptr
	n int
}

func keyOf(s string) strKey {
	return strKey{uintptr(unsafe.Pointer(unsafe.StringData(s))), len(s)}
}

// stackHash hashes a context by frame: its function and file names'
// string addresses and its line. Contexts built from the same name
// strings — a trace decoder's string table, or a program's literals —
// hash alike without reading a byte of any name. Equal names at other
// addresses hash differently, which costs only a duplicate entry.
func stackHash(c stack.Context) uint64 {
	fr := c.Frames()
	h := uint64(len(fr))
	for i := range fr {
		h = (h ^ uint64(uintptr(unsafe.Pointer(unsafe.StringData(fr[i].Func))))) * 0x100000001b3
		h = (h ^ uint64(uintptr(unsafe.Pointer(unsafe.StringData(fr[i].File))))) * 0x100000001b3
		h = (h ^ uint64(fr[i].Line)) * 0x100000001b3
	}
	return h
}

// lastCtx is a goroutine's last access context: the stack frames,
// goroutine name and label of its latest access, and the meta id that
// context took under each access op (indexed by trace.Op; slot 0 is
// unused). A goroutine mostly repeats its context, so metaOf checks
// the entry first: a hit costs a few word compares, with no stack
// hash, no key and no held-lock lookup. Frames enter by identity:
// stack.Stack.Capture copies and the decoder's depot interns, so a
// context's frames never change, and the pointer keeps them from being
// freed and their address reused while the entry names them. Name and
// label need no pointer: every id in the entry is a meta whose key
// holds the same strings, so they outlive the entry's use of them.
// The ids also depend on the goroutine's held locks, so a change of
// its held-label list clears the entry.
type lastCtx struct {
	frames       *stack.Frame
	nframes      int
	gname, label strKey
	ids          [trace.OpAtomicRMW + 1]uint32
}

// metaCacheBits sizes the direct-mapped cache in front of the meta
// index: metaCacheSize slots of one meta id each.
const (
	metaCacheBits = 9
	metaCacheSize = 1 << metaCacheBits
)

// ftCell is the shadow state of one memory cell: 56 bytes, no
// pointers. Cells live by value in per-page slabs (paged.go), so
// looking one up is two bounds checks, not a map probe, and a fresh
// cell costs no allocation once its page's slab has grown.
//
// The read history is adaptive, FastTrack style: while a single
// goroutine reads the cell — by far the common case — the history is
// the inline `read` slot and costs nothing beyond the cell itself.
// The first read by a second goroutine *promotes* the cell to a
// readers list (a side-table slot drawn from the detector's
// freelist); the next write *demotes* it back, releasing the list for
// reuse by other cells. Unlike textbook FastTrack, an *ordered* read
// by a second goroutine still promotes: this detector reports one race
// per retained reader with that reader's metadata, so collapsing
// ordered readers into one slot would change which reports a later
// concurrent write produces.
type ftCell struct {
	write ftAccess
	// read is the epoch-form read slot: the most recent read while at
	// most one goroutine has read since the last write.
	read ftAccess
	// readers is 1 + the index of the promoted (vector-clock-form)
	// read history in FastTrack.readers: the most recent read per
	// goroutine since the last write, in first-read order. 0 while the
	// cell is in epoch form.
	readers uint32
	reports uint32
}

// used reports whether the cell holds any access history. Every access
// leaves some, so this is "seen since the last eviction or Reset".
func (c *ftCell) used() bool {
	return c.write.meta != 0 || c.read.meta != 0 || c.readers != 0
}

// FastTrack is the happens-before race detector: the shared hb clocks
// plus per-cell access histories; a race is two accesses to the same
// cell, at least one a write, not both atomic, with neither ordered
// before the other. The per-event path performs no steady-state
// allocations, and Reset reuses every buffer.
//
// Shadow state is split as in a production race runtime: pointer-free
// cells hold only who/when/which-context words, while the report
// context (goroutine name, stack, label, held locks, op) lives once in
// the metas table and is looked up only when a report is built.
//
// Shadow memory is paged (the Evictor interface): cells are grouped in
// pages of pagedCellsPerPage dense indices, each page owning a slab
// while resident and sitting on an intrusive LRU list that every
// access updates, and under a page budget the least-recently-touched
// page (the list's head) is reclaimed in O(1), its slab going back to
// a freelist. Stable identities take cells on id pages in first-touch
// order, and an evicted id page releases its identities from the
// address index, so identity state is bounded by resident pages too.
// Evicted cells lose their access history; a
// re-accessed evicted address restarts in epoch form as if never seen,
// so races straddling an eviction are missed (false negatives only —
// clearing history can never fabricate a happens-before violation, so
// every report remains one the unbudgeted detector would also make).
// Evictions and Reloads in Stats quantify the tradeoff. Recency is
// the order of accesses, not wall-time or GC pressure: the same event
// stream under the same budget always evicts the same pages at the
// same points. With no budget (the default) nothing is ever
// evicted.
type FastTrack struct {
	hb
	locks *lockTracker
	races []report.Race
	// metas is the interned report context (index 0 reserved for "no
	// access"); metaIx finds an entry by key, and metaCache, indexed
	// by a hash of the key, skips the map probe on the hot path. Cache
	// slots are validated against metas, so Reset need not clear them.
	metas     []ftMeta
	metaIx    map[metaKey]uint32
	metaCache [metaCacheSize]uint32
	// last is each goroutine's last access context, checked before
	// metaCache. Its ids are validated against metas too, but Reset
	// clears it: a rewound metas reuses ids for other contexts.
	last []lastCtx
	// readers is the promoted read-history side table; freeReaders
	// lists its unused slots. Only currently promoted cells hold a
	// slot, and a demotion hands it to the next promotion anywhere in
	// the detector.
	readers     [][]ftAccess
	freeReaders []uint32
	// addrIx numbers stable identities for their id pages (paged.go).
	addrIx sparseIndex
	// Paging state (paged.go): the budget survives Reset, the rest
	// rewinds with it.
	maxPages int
	pages    []shadowPage
	// head and tail are the least and most recently touched resident
	// pages; cur is the page of the access in progress, which promote
	// and demote account to (an index: growing pages moves them).
	head, tail, cur    int32
	nResident          int
	freeSlabs          [][]ftCell // slabs of evicted pages, for reuse
	evictions, reloads int
	// Stable identities are numbered page by page (paged.go): fill is
	// the id page new identities take slots on (noPage: none), filled
	// the slots it has handed out, idPages the id pages ever opened
	// and freeIDPages those eviction released. evicted is the table of
	// recently evicted identities, allocated by the first release.
	fill        int32
	filled      int
	idPages     int
	freeIDPages []int32
	evicted     []uint64
	// MaxReportsPerCell caps reports from a single cell so a racy
	// loop does not flood the output (default 8).
	MaxReportsPerCell int
}

// NewFastTrack returns a fresh happens-before detector.
func NewFastTrack() *FastTrack {
	return &FastTrack{
		hb:                newHB(),
		locks:             newLockTracker(),
		metas:             make([]ftMeta, 1),
		metaIx:            make(map[metaKey]uint32),
		head:              noPage,
		tail:              noPage,
		fill:              noPage,
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

// Stats implements Detector.
func (ft *FastTrack) Stats() Stats {
	s := ft.statsOf(len(ft.races))
	s.Evictions, s.Reloads = ft.evictions, ft.reloads
	return s
}

// Reset implements Detector: it clears all detection state in place,
// releasing clocks to the pool, slabs and reader lists to their
// freelists, and retaining every buffer, so the detector can consume
// another run without reallocating its shadow state. Slices previously
// returned by Races are invalidated.
func (ft *FastTrack) Reset() {
	ft.hb.reset()
	for pg := ft.head; pg != noPage; pg = ft.pages[pg].next {
		ft.freeSlabs = append(ft.freeSlabs, ft.pages[pg].cells[:0])
	}
	ft.head, ft.tail, ft.nResident = noPage, noPage, 0
	ft.pages = ft.pages[:0]
	ft.addrIx.reset()
	ft.fill, ft.filled, ft.idPages = noPage, 0, 0
	ft.freeIDPages = ft.freeIDPages[:0]
	clear(ft.evicted)
	// Teardown, not demotions: the counters describe the event stream,
	// so Reset does not touch them.
	ft.freeReaders = ft.freeReaders[:0]
	for i := range ft.readers {
		ft.freeReaders = append(ft.freeReaders, uint32(i))
	}
	clear(ft.metas[1:])
	ft.metas = ft.metas[:1]
	clear(ft.metaIx)
	clear(ft.last)
	ft.locks.reset()
	ft.races = ft.races[:0]
	ft.evictions, ft.reloads = 0, 0
}

// promote moves c, a cell of the current access's page, to a readers
// list holding a then b, drawing the list from the freelist or
// allocating the first time a promotion outruns it.
func (ft *FastTrack) promote(c *ftCell, a, b ftAccess) {
	var i uint32
	if n := len(ft.freeReaders); n > 0 {
		i = ft.freeReaders[n-1]
		ft.freeReaders = ft.freeReaders[:n-1]
	} else {
		i = uint32(len(ft.readers))
		ft.readers = append(ft.readers, make([]ftAccess, 0, 4))
	}
	ft.readers[i] = append(ft.readers[i][:0], a, b)
	c.readers = i + 1
	ft.pages[ft.cur].promoted++
}

// demote parks the readers list of c, a cell of page p, for the next
// promotion.
func (ft *FastTrack) demote(p *shadowPage, c *ftCell) {
	ft.freeReaders = append(ft.freeReaders, c.readers-1)
	c.readers = 0
	p.promoted--
}

// cell returns the shadow cell for a, after the access's page
// bookkeeping (cell runs exactly once per access): the cell's page is
// faulted in if needed and becomes the most recently touched. The
// returned pointer is only valid until the next cell call (slab growth
// may move it).
func (ft *FastTrack) cell(a trace.Addr) *ftCell {
	i := uint64(a)
	if i&trace.StableBit != 0 {
		i = ft.stableCell(i)
	}
	pg, slot := int(i/pagedCellsPerPage), int(i%pagedCellsPerPage)
	if pg >= len(ft.pages) || !ft.pages[pg].resident || (ft.maxPages > 0 && ft.nResident > ft.maxPages) {
		ft.faultPage(pg)
	}
	if int32(pg) != ft.tail {
		ft.unlink(pg)
		ft.linkTail(pg)
	}
	ft.cur = int32(pg)
	p := &ft.pages[pg]
	if slot >= len(p.cells) {
		p.cells = growSlab(p.cells, slot)
	}
	c := &p.cells[slot]
	if !c.used() {
		ft.cellCount++
		p.used++
	}
	return c
}

// metaOf returns the interned report context of ev, adding it on first
// sight. A repeat of the goroutine's last context returns from its
// lastCtx entry; otherwise a cache hit costs the stack hash and one key
// compare, and only a miss probes the map. No path hashes or compares a
// string's bytes.
func (ft *FastTrack) metaOf(ev *trace.Event) uint32 {
	if int(ev.G) >= len(ft.last) {
		ft.last = append(ft.last, make([]lastCtx, max(int(ev.G)+1, 8)-len(ft.last))...)
	}
	e := &ft.last[ev.G]
	fr := ev.Stack.Frames()
	gname, label := keyOf(ev.GName), keyOf(ev.Label)
	if e.frames != unsafe.SliceData(fr) || e.nframes != len(fr) || e.gname != gname || e.label != label {
		*e = lastCtx{frames: unsafe.SliceData(fr), nframes: len(fr), gname: gname, label: label}
	} else if id := e.ids[ev.Op]; id != 0 && int(id) < len(ft.metas) {
		return id
	}
	k := metaKey{
		gname: gname, label: label, stack: stackHash(ev.Stack),
		locks: ft.locks.setID(ev.G), op: ev.Op,
	}
	h := (k.stack ^ uint64(k.label.p)<<1 ^ uint64(k.gname.p)<<7 ^
		uint64(k.locks)<<11 ^ uint64(k.op)) * 0x9e3779b97f4a7c15
	slot := &ft.metaCache[h>>(64-metaCacheBits)]
	id := *slot
	if id == 0 || int(id) >= len(ft.metas) || !ft.matches(id, &k, ev.Stack) {
		var ok bool
		id, ok = ft.metaIx[k]
		if !ok || !ft.matches(id, &k, ev.Stack) {
			// New context, or a stack-hash collision: the entry the key
			// already names stays valid for the cells that use it.
			id = uint32(len(ft.metas))
			ft.metas = append(ft.metas, ftMeta{key: k, gname: ev.GName, label: ev.Label, stk: ev.Stack})
			ft.metaIx[k] = id
		}
		*slot = id
	}
	e.ids[ev.Op] = id
	return id
}

// matches reports whether metas[id] is the context (k, stk). The key
// is compared field by field: a struct == compiles to a memory compare
// call here.
func (ft *FastTrack) matches(id uint32, k *metaKey, stk stack.Context) bool {
	m := &ft.metas[id]
	return m.key.stack == k.stack && m.key.gname == k.gname && m.key.label == k.label &&
		m.key.locks == k.locks && m.key.op == k.op && sameFrames(m.stk, stk)
}

// sameFrames reports whether a and b hold the same frames. Contexts
// that share storage (one capture, or one depot entry) compare in O(1).
func sameFrames(a, b stack.Context) bool {
	fa, fb := a.Frames(), b.Frames()
	if len(fa) != len(fb) {
		return false
	}
	if len(fa) == 0 || &fa[0] == &fb[0] {
		return true
	}
	for i := range fa {
		if fa[i] != fb[i] {
			return false
		}
	}
	return true
}

// toReport rebuilds the report.Access of a recorded access at addr.
func (ft *FastTrack) toReport(a ftAccess, addr trace.Addr) report.Access {
	m := &ft.metas[a.meta]
	return report.Access{
		G: a.g, GName: m.gname, Op: m.key.op, Addr: addr, Seq: a.seq,
		Stack: m.stk, Label: m.label, Atomic: a.atomic, Locks: ft.locks.sets[m.key.locks],
	}
}

// HandleEvent implements trace.Listener.
func (ft *FastTrack) HandleEvent(ev trace.Event) {
	ft.stats.note(&ev)
	switch ev.Op {
	case trace.OpFork:
		ft.fork(&ev)

	case trace.OpAcquire:
		ft.relock(&ev)
		ft.acquire(&ev)

	case trace.OpRelease:
		ft.relock(&ev)
		ft.release(&ev)

	case trace.OpRead, trace.OpAtomicLoad:
		ft.read(&ev)

	case trace.OpWrite, trace.OpAtomicStore, trace.OpAtomicRMW:
		ft.write(&ev)
	}
}

// relock applies a lock event to the held sets, clearing the
// goroutine's last context if its held-label list changed.
func (ft *FastTrack) relock(ev *trace.Event) {
	if _, relabel := ft.locks.handle(ev); relabel && int(ev.G) < len(ft.last) {
		ft.last[ev.G] = lastCtx{}
	}
}

func (ft *FastTrack) newAccess(ev *trace.Event, cur *vclock.VC) ftAccess {
	return ftAccess{
		seq: ev.Seq, g: ev.G, time: cur.Get(ev.G),
		meta: ft.metaOf(ev), atomic: ev.Op.IsAtomic(),
	}
}

func (ft *FastTrack) read(ev *trace.Event) {
	c := ft.cell(ev.Addr)
	cur := ft.clockOf(ev.G)
	if c.write.meta != 0 && c.write.g != ev.G && c.write.time > cur.Get(c.write.g) {
		if !(c.write.atomic && ev.Op.IsAtomic()) {
			ft.report(ev, c, c.write)
		}
	}
	a := ft.newAccess(ev, cur)
	if c.readers != 0 {
		// Promoted: maintain the per-goroutine slot in first-read
		// order, exactly the pre-adaptive list behavior.
		rs := ft.readers[c.readers-1]
		for i := range rs {
			if rs[i].g == ev.G {
				rs[i] = a
				return
			}
		}
		ft.readers[c.readers-1] = append(rs, a)
		return
	}
	if c.read.meta == 0 || c.read.g == ev.G {
		// Epoch-form fast path: first reader, or the owning goroutine
		// reading again.
		c.read = a
		ft.adapt.fastReads++
		return
	}
	// Second distinct reader: promote. The prior slot goes first so
	// the list order matches the pre-adaptive insertion order.
	ft.promote(c, c.read, a)
	c.read = ftAccess{}
	ft.adapt.promotions++
}

func (ft *FastTrack) write(ev *trace.Event) {
	c := ft.cell(ev.Addr)
	cur := ft.clockOf(ev.G)
	if c.write.meta != 0 && c.write.g != ev.G && c.write.time > cur.Get(c.write.g) {
		if !(c.write.atomic && ev.Op.IsAtomic()) {
			ft.report(ev, c, c.write)
		}
	}
	if c.readers != 0 {
		for _, r := range ft.readers[c.readers-1] {
			if r.g == ev.G {
				continue
			}
			if r.time > cur.Get(r.g) && !(r.atomic && ev.Op.IsAtomic()) {
				ft.report(ev, c, r)
			}
		}
		// Demote: the write subsumes the ordered read history and the
		// concurrent readers were just reported, so the list goes back
		// to the freelist for the next promotion.
		ft.demote(&ft.pages[ft.cur], c)
		ft.adapt.demotions++
	} else if r := c.read; r.meta != 0 && r.g != ev.G && r.time > cur.Get(r.g) && !(r.atomic && ev.Op.IsAtomic()) {
		ft.report(ev, c, r)
	}
	c.read = ftAccess{}
	c.write = ft.newAccess(ev, cur)
}

func (ft *FastTrack) report(ev *trace.Event, c *ftCell, prior ftAccess) {
	if int(c.reports) >= ft.MaxReportsPerCell {
		return
	}
	c.reports++
	ft.races = append(ft.races, report.Race{
		First: ft.toReport(prior, ev.Addr),
		Second: report.Access{
			G: ev.G, GName: ev.GName, Op: ev.Op, Addr: ev.Addr, Seq: ev.Seq,
			Stack: ev.Stack, Label: ev.Label, Atomic: ev.Op.IsAtomic(),
			Locks: ft.locks.heldLabels(ev.G),
		},
		Detector: ft.Name(),
		Seq:      ev.Seq,
	})
}
