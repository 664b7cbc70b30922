// Package progen generates random modeled programs for differential
// testing: the scheduler must execute them without model failures
// under every strategy, runs must be deterministic per seed, and the
// happens-before detectors (FastTrack, Epoch, DJIT) must agree on
// verdicts within their published differences.
//
// A generated program spawns a random set of goroutines, each
// performing a random straight-line sequence of operations over a
// shared pool of variables, mutexes, RW mutexes, atomics, buffered
// channels, and a WaitGroup. Blocking hazards are constrained by
// construction: locks are released in LIFO order by the acquiring
// goroutine, channel traffic is pre-balanced (every receive has a
// matching send), and Wait runs only in the main goroutine after all
// Adds. Generated programs may still race — that is the point.
//
// Beyond the base shape family, Params can enable the taxonomy idioms
// the paper names that a plain variable/lock/channel mix cannot
// express: thread-unsafe maps hit concurrently (Maps), atomic flag
// publication with a plain-read consumer (Flags), context-cancellation
// trees with a shared cancellation reason (CtxDepth), errgroup-style
// fan-out with a shared first-error slot and Done-before-write
// stragglers (Errgroup), and pooled-object reuse through a free-list
// channel with use-after-put writers (Pools). internal/racegen mutates
// these knobs to steer generation toward shapes that discriminate
// between detectors.
//
// Programs round-trip through Spec, a JSON-serializable form, so a
// kept program can be minimized op-by-op and committed as a regression
// input (see internal/racegen/testdata).
package progen

import (
	"fmt"
	"math/rand"

	"gorace/internal/sched"
)

// Int returns a pointer to v, for the Params fields whose zero value
// is meaningful (LockedRatio, ChanCap).
func Int(v int) *int { return &v }

// Params bounds the generated program shape. Plain int fields treat 0
// as "use the default"; the pointer fields exist precisely because
// their zero is a real configuration (0% locked accesses, unbuffered
// channels), so nil means "default" and Int(0) means literal zero.
type Params struct {
	Goroutines int `json:"goroutines,omitempty"` // worker goroutines (default 4)
	OpsPerG    int `json:"opsPerG,omitempty"`    // operations per goroutine (default 12)
	Vars       int `json:"vars,omitempty"`       // shared plain variables (default 4)
	Mutexes    int `json:"mutexes,omitempty"`    // shared mutexes (default 2)
	RWMutexes  int `json:"rwMutexes,omitempty"`  // shared RW mutexes (default 1)
	Atomics    int `json:"atomics,omitempty"`    // shared atomic cells (default 1)
	Channels   int `json:"channels,omitempty"`   // shared channels (default 1)

	// ChanCap sets each channel's exact capacity. nil keeps the legacy
	// behavior: capacity covers every send and the main goroutine
	// drains afterwards. With ChanCap set (Int(0) = unbuffered, the
	// shape nil could never express), each channel gets a dedicated
	// drainer goroutine so senders always make progress.
	ChanCap *int `json:"chanCap,omitempty"`
	// LockedRatio is the percent of guarded-eligible accesses
	// performed under a lock. nil = default 50; Int(0) = fully
	// unguarded, which the old int field could not express.
	LockedRatio *int `json:"lockedRatio,omitempty"`

	// Idiom extensions; zero means the idiom is absent, so base-family
	// programs are byte-identical to pre-extension progen.
	Maps     int  `json:"maps,omitempty"`     // shared thread-unsafe maps
	MapKeys  int  `json:"mapKeys,omitempty"`  // distinct keys per map (default 3)
	Flags    int  `json:"flags,omitempty"`    // atomic publication flag + plain data pairs
	CtxDepth int  `json:"ctxDepth,omitempty"` // context-cancellation chain depth
	Errgroup bool `json:"errgroup,omitempty"` // shared first-error slot + post-Wait read
	Pools    int  `json:"pools,omitempty"`    // pooled objects behind a free-list channel
}

// resolved is Params with every default applied, as plain values.
type resolved struct {
	Params
	lockedPct int
	chanCap   int // -1 = legacy sends+1 capacity with main-drain
	mapKeys   int
}

func (p Params) withDefaults() resolved {
	def := Params{Goroutines: 4, OpsPerG: 12, Vars: 4, Mutexes: 2,
		RWMutexes: 1, Atomics: 1, Channels: 1}
	if p.Goroutines == 0 {
		p.Goroutines = def.Goroutines
	}
	if p.OpsPerG == 0 {
		p.OpsPerG = def.OpsPerG
	}
	if p.Vars == 0 {
		p.Vars = def.Vars
	}
	if p.Mutexes == 0 {
		p.Mutexes = def.Mutexes
	}
	if p.RWMutexes == 0 {
		p.RWMutexes = def.RWMutexes
	}
	if p.Atomics == 0 {
		p.Atomics = def.Atomics
	}
	if p.Channels == 0 {
		p.Channels = def.Channels
	}
	r := resolved{Params: p, lockedPct: 50, chanCap: -1, mapKeys: 3}
	if p.LockedRatio != nil {
		r.lockedPct = *p.LockedRatio
	}
	if p.ChanCap != nil {
		r.chanCap = *p.ChanCap
		if r.chanCap < 0 {
			r.chanCap = 0
		}
	}
	if p.MapKeys > 0 {
		r.mapKeys = p.MapKeys
	}
	return r
}

// op is one generated operation in a goroutine's straight-line body.
type op struct {
	kind    opKind
	target  int // index into the relevant resource pool
	key     int // map key for map ops
	lock    int // mutex index for guarded ops, -1 for unguarded
	rwRead  bool
	isWrite bool
	// plain marks the racy sub-variant of an idiom op: a plain read of
	// a publication flag, an unconditional read of the cancellation
	// reason, a use-after-put write to a pooled object.
	plain bool
}

type opKind uint8

const (
	opVar opKind = iota
	opAtomic
	opChanSend
	opChanRecv
	opYield
	opMapGet
	opMapPut
	opMapDel
	opMapRange
	opFlagPub  // write data plainly, then atomically store the flag
	opFlagRead // load the flag (plainly when plain), read data if set
	opCtxPoll  // poll a context level; read the reason on done (or always, when plain)
	opPoolUse  // take an object from the pool, write it, put it back (write again when plain)
	opErrSet   // write the shared first-error slot
)

// Program is a generated program plus its metadata.
type Program struct {
	Seed       int64
	Params     Params
	bodies     [][]op
	stragglers []bool // per goroutine: write err after wg.Done (Errgroup)
	sends      []int  // channel sends per channel, computed from bodies
}

// computeSends rebuilds the per-channel send balance from the bodies.
func (pr *Program) computeSends() {
	r := pr.Params.withDefaults()
	pr.sends = make([]int, r.Channels)
	for _, body := range pr.bodies {
		for _, o := range body {
			if o.kind == opChanSend {
				pr.sends[o.target]++
			}
		}
	}
}

// Generate builds a random program from a seed.
func Generate(seed int64, p Params) *Program {
	r := p.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	prog := &Program{Seed: seed, Params: p}

	// The op menu: the first ten entries reproduce the legacy
	// distribution exactly (same rng consumption, same shapes), so
	// idiom-free programs are unchanged across the catalog extension.
	type gen func() op
	menu := []gen{
		// 0–4: plain variable access.
		func() op { return varOp(rng, r) },
		func() op { return varOp(rng, r) },
		func() op { return varOp(rng, r) },
		func() op { return varOp(rng, r) },
		func() op { return varOp(rng, r) },
		// 5: RW-guarded variable access.
		func() op {
			o := op{kind: opVar, target: rng.Intn(r.Vars), lock: r.Mutexes + rng.Intn(r.RWMutexes)}
			o.isWrite = rng.Intn(2) == 0
			o.rwRead = !o.isWrite // readers take RLock, writers Lock
			return o
		},
		// 6: atomic access.
		func() op {
			return op{kind: opAtomic, target: rng.Intn(r.Atomics), lock: -1, isWrite: rng.Intn(2) == 0}
		},
		// 7: channel send (drained by main or a drainer goroutine).
		func() op { return op{kind: opChanSend, target: rng.Intn(r.Channels), lock: -1} },
		// 8: pure computation.
		func() op { return op{kind: opYield, lock: -1} },
		// 9: guarded read-modify-write.
		func() op {
			return op{kind: opVar, target: rng.Intn(r.Vars), lock: rng.Intn(r.Mutexes), isWrite: true}
		},
	}
	if r.Maps > 0 {
		mapOp := func(kind opKind, write bool) op {
			o := op{kind: kind, target: rng.Intn(r.Maps), key: rng.Intn(r.mapKeys), lock: -1, isWrite: write}
			if rng.Intn(100) < r.lockedPct {
				o.lock = rng.Intn(r.Mutexes)
			}
			return o
		}
		menu = append(menu,
			func() op { return mapOp(opMapGet, false) },
			func() op { return mapOp(opMapPut, true) },
			func() op {
				switch rng.Intn(3) {
				case 0:
					return mapOp(opMapDel, true)
				default:
					return mapOp(opMapRange, false)
				}
			},
		)
	}
	if r.Flags > 0 {
		menu = append(menu,
			func() op { return op{kind: opFlagPub, target: rng.Intn(r.Flags), lock: -1} },
			func() op {
				// The plain (racy) consumer skips the atomic load — the
				// §4.9.2 partial-atomics half — at the unguarded rate.
				return op{kind: opFlagRead, target: rng.Intn(r.Flags), lock: -1,
					plain: rng.Intn(100) >= r.lockedPct}
			},
		)
	}
	if r.CtxDepth > 0 {
		menu = append(menu, func() op {
			return op{kind: opCtxPoll, target: rng.Intn(r.CtxDepth), lock: -1,
				plain: rng.Intn(100) >= r.lockedPct}
		})
	}
	if r.Pools > 0 {
		menu = append(menu, func() op {
			return op{kind: opPoolUse, target: rng.Intn(r.Pools), lock: -1,
				plain: rng.Intn(100) >= r.lockedPct}
		})
	}
	if r.Errgroup {
		menu = append(menu, func() op {
			o := op{kind: opErrSet, lock: -1, isWrite: true}
			if rng.Intn(100) < r.lockedPct {
				o.lock = rng.Intn(r.Mutexes)
			}
			return o
		})
	}

	for gi := 0; gi < r.Goroutines; gi++ {
		var body []op
		for oi := 0; oi < r.OpsPerG; oi++ {
			body = append(body, menu[rng.Intn(len(menu))]())
		}
		prog.bodies = append(prog.bodies, body)
	}
	if r.Errgroup {
		prog.stragglers = make([]bool, r.Goroutines)
		for gi := range prog.stragglers {
			// A straggler calls wg.Done before its final err write —
			// the Done-before-publish statement-order bug that makes
			// errgroup fan-out race with the post-Wait reader.
			prog.stragglers[gi] = rng.Intn(3) == 0
		}
	}
	prog.computeSends()
	return prog
}

// varOp draws the legacy plain-variable access (menu cases 0–4).
func varOp(rng *rand.Rand, r resolved) op {
	o := op{kind: opVar, target: rng.Intn(r.Vars), lock: -1, isWrite: rng.Intn(2) == 0}
	if rng.Intn(100) < r.lockedPct {
		o.lock = rng.Intn(r.Mutexes)
	}
	return o
}

// resources is the shared state a program body executes over.
type resources struct {
	vars   []*sched.Var[int]
	mus    []*sched.Mutex
	rws    []*sched.RWMutex
	atoms  []*sched.Atomic
	chans  []*sched.Chan[int]
	maps   []*sched.Map[int, int]
	fdata  []*sched.Var[int] // published payloads, one per flag
	fctl   []*sched.Atomic   // publication flags
	ctxs   []*sched.Context  // cancellation chain, root first
	reason *sched.Var[int]   // cancellation reason, written before cancel
	pool   *sched.Chan[int]  // free list of pooled object indices
	pobjs  []*sched.Var[int] // pooled objects' state
	errV   *sched.Var[int]   // errgroup first-error slot
}

// Main returns the runnable program body.
func (pr *Program) Main() func(*sched.G) {
	r := pr.Params.withDefaults()
	return func(g *sched.G) {
		res := &resources{}
		res.vars = make([]*sched.Var[int], r.Vars)
		for i := range res.vars {
			res.vars[i] = sched.NewVar[int](g, fmt.Sprintf("v%d", i))
		}
		res.mus = make([]*sched.Mutex, r.Mutexes)
		for i := range res.mus {
			res.mus[i] = sched.NewMutex(g, fmt.Sprintf("mu%d", i))
		}
		res.rws = make([]*sched.RWMutex, r.RWMutexes)
		for i := range res.rws {
			res.rws[i] = sched.NewRWMutex(g, fmt.Sprintf("rw%d", i))
		}
		res.atoms = make([]*sched.Atomic, r.Atomics)
		for i := range res.atoms {
			res.atoms[i] = sched.NewAtomic(g, fmt.Sprintf("at%d", i))
		}
		res.chans = make([]*sched.Chan[int], r.Channels)
		for i := range res.chans {
			cap := pr.sends[i] + 1
			if r.chanCap >= 0 {
				cap = r.chanCap
			}
			// Legacy capacity covers all sends so no producer blocks
			// forever even if main is still spawning.
			res.chans[i] = sched.NewChan[int](g, fmt.Sprintf("ch%d", i), cap)
		}
		for i := 0; i < r.Maps; i++ {
			res.maps = append(res.maps, sched.NewMap[int, int](g, fmt.Sprintf("m%d", i)))
		}
		for i := 0; i < r.Flags; i++ {
			res.fdata = append(res.fdata, sched.NewVar[int](g, fmt.Sprintf("payload%d", i)))
			res.fctl = append(res.fctl, sched.NewAtomic(g, fmt.Sprintf("ready%d", i)))
		}
		if r.CtxDepth > 0 {
			res.reason = sched.NewVar[int](g, "ctx.reason")
			ctx := sched.Background(g)
			cancels := make([]func(*sched.G), 0, r.CtxDepth)
			for i := 0; i < r.CtxDepth; i++ {
				var cancel func(*sched.G)
				ctx, cancel = ctx.WithCancel(g, fmt.Sprintf("lvl%d", i))
				res.ctxs = append(res.ctxs, ctx)
				cancels = append(cancels, cancel)
			}
			// The canceller publishes the reason, then cancels the
			// whole tree root-to-leaf: consumers that wait for Done
			// read the reason ordered; plain pollers race with it.
			g.Go("canceller", func(g *sched.G) {
				for i := 0; i < 3; i++ {
					g.Yield()
				}
				res.reason.Store(g, 1)
				for _, cancel := range cancels {
					cancel(g)
				}
			})
		}
		if r.Pools > 0 {
			res.pool = sched.NewChan[int](g, "pool", r.Pools)
			res.pobjs = make([]*sched.Var[int], r.Pools)
			for i := range res.pobjs {
				res.pobjs[i] = sched.NewVar[int](g, fmt.Sprintf("api.pool.obj%d", i))
				res.pool.Send(g, i)
			}
		}
		if r.Errgroup {
			res.errV = sched.NewVar[int](g, "err")
		}
		wg := sched.NewWaitGroup(g, "wg")

		// With an explicit channel capacity, senders can block on a
		// full (or unbuffered) channel; a dedicated drainer per
		// channel receives exactly the balanced send count.
		if r.chanCap >= 0 {
			for ci, n := range pr.sends {
				if n == 0 {
					continue
				}
				ci, n := ci, n
				wg.Add(g, 1)
				g.Go(fmt.Sprintf("drain%d", ci), func(g *sched.G) {
					for i := 0; i < n; i++ {
						res.chans[ci].Recv(g)
					}
					wg.Done(g)
				})
			}
		}

		for gi, body := range pr.bodies {
			body := body
			straggler := len(pr.stragglers) > gi && pr.stragglers[gi]
			wg.Add(g, 1)
			g.Go(fmt.Sprintf("w%d", gi), func(g *sched.G) {
				for _, o := range body {
					execOp(g, o, res)
				}
				wg.Done(g)
				if straggler {
					// Done-before-publish: the write the group
					// synchronization was supposed to order.
					res.errV.Store(g, 1)
				}
			})
		}
		wg.Wait(g)
		if r.Errgroup {
			// The errgroup pattern: the waiter collects the first
			// error after Wait — racing with any straggler's write.
			res.errV.Load(g)
		}
		if r.chanCap < 0 {
			// Drain every channel so no value is stranded.
			for ci, n := range pr.sends {
				for i := 0; i < n; i++ {
					res.chans[ci].Recv(g)
				}
			}
		}
	}
}

func execOp(g *sched.G, o op, res *resources) {
	unlock := func() {}
	if o.lock >= 0 && o.kind != opVar {
		mu := res.mus[o.lock]
		mu.Lock(g)
		unlock = func() { mu.Unlock(g) }
	}
	switch o.kind {
	case opVar:
		if o.lock >= 0 {
			if o.lock < len(res.mus) {
				mu := res.mus[o.lock]
				mu.Lock(g)
				unlock = func() { mu.Unlock(g) }
			} else {
				rw := res.rws[o.lock-len(res.mus)]
				if o.rwRead {
					rw.RLock(g)
					unlock = func() { rw.RUnlock(g) }
				} else {
					rw.Lock(g)
					unlock = func() { rw.Unlock(g) }
				}
			}
		}
		v := res.vars[o.target]
		if o.isWrite {
			v.Store(g, 1)
		} else {
			v.Load(g)
		}
	case opAtomic:
		if o.isWrite {
			res.atoms[o.target].Add(g, 1)
		} else {
			res.atoms[o.target].Load(g)
		}
	case opChanSend:
		res.chans[o.target].Send(g, 1)
	case opChanRecv:
		res.chans[o.target].Recv(g)
	case opYield:
		g.Yield()
	case opMapGet:
		res.maps[o.target].Get(g, o.key)
	case opMapPut:
		res.maps[o.target].Put(g, o.key, 1)
	case opMapDel:
		res.maps[o.target].Delete(g, o.key)
	case opMapRange:
		res.maps[o.target].Range(g, func(int, int) bool { return true })
	case opFlagPub:
		// Publish: write the payload plainly, then release the flag.
		res.fdata[o.target].Store(g, 1)
		res.fctl[o.target].Store(g, 1)
	case opFlagRead:
		if o.plain {
			// Partial atomics: a plain read of the flag carries no
			// acquire edge, racing with the atomic store — and the
			// payload read it gates is unordered too.
			if res.fctl[o.target].PlainLoad(g) != 0 {
				res.fdata[o.target].Load(g)
			}
		} else if res.fctl[o.target].Load(g) != 0 {
			res.fdata[o.target].Load(g)
		}
	case opCtxPoll:
		ctx := res.ctxs[o.target]
		done := false
		g.Select(
			ctx.OnDone(func() { done = true }),
			sched.Default(nil),
		)
		if done {
			res.reason.Load(g) // ordered by the Done edge
		} else if o.plain {
			res.reason.Load(g) // unordered peek at the reason
		}
	case opPoolUse:
		idx, _ := res.pool.Recv(g)
		res.pobjs[idx].Store(g, 1)
		res.pool.Send(g, idx)
		if o.plain {
			// Use-after-put: the object now belongs to the next
			// taker, but this goroutine keeps writing it.
			res.pobjs[idx].Store(g, 2)
		}
	case opErrSet:
		res.errV.Store(g, 1)
	}
	unlock()
}
