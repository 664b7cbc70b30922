// Package sched is the modeled concurrency runtime on which the race
// pattern corpus executes.
//
// Real Go schedules goroutines preemptively and non-deterministically,
// which is exactly why the paper's dynamic race detection is flaky
// (§3.2.1). This package replaces the real scheduler with a cooperative,
// deterministic one: modeled goroutines (G) run one at a time, and at
// every instrumented operation (memory access or synchronization op)
// the running G asks the scheduler who runs next. A pluggable Strategy decides which runnable
// goroutine proceeds at each step, so a single program can be executed
// under round-robin, seeded-random, PCT, delay-injection, or replayed
// schedules — making race manifestation measurable and repeatable.
//
// Every operation on the modeled primitives (Var, Mutex, RWMutex, Chan,
// WaitGroup, Atomic, Map, Slice) emits trace.Events to the registered
// listeners; the detectors in internal/detector consume that stream.
package sched

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"gorace/internal/stack"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

type gstate uint8

const (
	gReady gstate = iota
	gRunning
	gBlocked
	gDone
)

// abortSignal is panicked inside a modeled goroutine to unwind it when
// the scheduler tears the run down (deadlock, leak, or step budget).
type abortSignal struct{}

// G is a modeled goroutine. All primitive operations take the acting G
// as their first argument; a G must only be used from its own body
// function.
type G struct {
	id        vclock.TID
	name      string
	path      string // structural spawn path ("0", "0.1", "0.1.2", ...)
	s         *Scheduler
	stk       *stack.Stack
	state     gstate
	co        *coro // the coroutine its body runs on
	blockedOn string
	// frozen is set when the G reaches a scheduling point while being
	// unwound by teardown. The G stops there for good: it emits
	// nothing more, and its exit leaves the run's state alone.
	frozen bool
	spawnN int // children spawned so far (path suffix allocator)
	allocN int // stable-mode shadow cells allocated by this G
	objN   int // stable-mode sync objects allocated by this G
}

// ID returns the goroutine's TID (dense, assigned in spawn order).
func (g *G) ID() vclock.TID { return g.id }

// Name returns the goroutine's diagnostic name.
func (g *G) Name() string { return g.name }

// LeakInfo describes a goroutine still blocked when the program ended,
// e.g. the forever-blocked channel send of Listing 9.
type LeakInfo struct {
	G         vclock.TID
	Name      string
	BlockedOn string
	Stack     stack.Context
}

// Result summarizes one modeled execution.
type Result struct {
	Steps          int        // scheduling decisions taken
	Goroutines     int        // total modeled goroutines spawned
	Events         uint64     // events emitted
	Failures       []string   // model-level failures (panics, unlock of unlocked mutex, ...)
	Leaked         []LeakInfo // goroutines blocked at program end
	BudgetExceeded bool       // the step budget was hit before quiescence
}

// Deadlocked reports whether the run ended with blocked goroutines.
func (r *Result) Deadlocked() bool { return len(r.Leaked) > 0 }

// Options configures a modeled run.
type Options struct {
	// Strategy picks the next runnable goroutine. Defaults to
	// RoundRobin. Strategies are Reset with Seed at run start.
	Strategy Strategy
	// Seed drives all strategy randomness; same seed, same schedule.
	Seed int64
	// MaxSteps bounds the run (default 1 << 20 scheduling points).
	MaxSteps int
	// Listeners observe the event stream (detectors, recorders).
	Listeners []trace.Listener
}

// Scheduler owns a single modeled execution.
type Scheduler struct {
	gs        []*G
	runnable  []*G
	listeners trace.Multi
	strategy  Strategy
	rng       *rand.Rand
	// turn is the G loop resumes next, set by the G that hands the
	// token back; nil ends the run (quiescence, deadlock, budget).
	turn        *G
	tearingDown bool
	seq         uint64
	steps       int
	maxSteps    int
	nextAddr    trace.Addr
	nextObj     trace.ObjID
	result      Result
	// Stable identity mode (see G.StableIDs): addresses and object
	// ids are hashed from spawn paths instead of allocation order.
	// The owner maps detect (astronomically unlikely) hash collisions.
	stable    bool
	addrOwner map[trace.Addr]string
	objOwner  map[trace.ObjID]string
	// pollers are goroutines blocked in a select with no ready arm;
	// they are woken (to re-poll) on any channel state change.
	pollers []*G
}

// Run executes main as the program's main goroutine under the given
// options and returns the run summary. Detection results live in the
// listeners passed via Options.
func Run(main func(g *G), opts Options) *Result {
	s := newScheduler(opts)
	s.spawn(nil, "main", main)
	s.loop()
	// Every modeled goroutine has parked for good: nothing draws from
	// the run RNG any more, and nothing touches the scheduler.
	rngPool.Put(s.rng)
	s.result.Steps = s.steps
	s.result.Goroutines = len(s.gs)
	s.result.Events = s.seq
	r := s.result
	s.release()
	return &r
}

// schedPool recycles schedulers. A pooled one keeps its gs and
// runnable slices and the previous run's G records with their frame
// buffers; a campaign starts one scheduler per execution, and these
// would otherwise be its largest fixed garbage.
var schedPool = sync.Pool{New: func() any { return new(Scheduler) }}

// newScheduler takes a pooled scheduler, which release left with every
// per-run field zeroed, and sets the run's options.
func newScheduler(opts Options) *Scheduler {
	st := opts.Strategy
	if st == nil {
		st = NewRoundRobin()
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1 << 20
	}
	s := schedPool.Get().(*Scheduler)
	s.listeners = trace.Multi(opts.Listeners)
	s.strategy = st
	s.rng = seededRand(opts.Seed)
	s.maxSteps = maxSteps
	s.nextAddr, s.nextObj = 1, 1
	st.Reset(opts.Seed)
	return s
}

// release zeroes every per-run field of an ended run's scheduler, which
// also drops what the caller owns (listeners, strategy, result slices),
// and returns it to schedPool. The G records past len(gs) stay in the
// backing array for spawn to reuse.
func (s *Scheduler) release() {
	*s = Scheduler{gs: s.gs[:0], runnable: s.runnable[:0]}
	schedPool.Put(s)
}

// rngPool recycles run RNGs. Seeding one is O(1) (see source), but its
// register is still about 5 KB, and a campaign starts one scheduler
// per execution.
var rngPool = sync.Pool{New: func() any { return rand.New(new(source)) }}

// seededRand returns a pooled RNG re-seeded with seed, which yields
// exactly the sequence rand.New(rand.NewSource(seed)) would. Return it
// with rngPool.Put once nothing draws from it any more.
func seededRand(seed int64) *rand.Rand {
	r := rngPool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// spawn creates a modeled goroutine. parent is nil only for main.
func (s *Scheduler) spawn(parent *G, name string, fn func(*G)) *G {
	path := "0"
	if parent != nil {
		path = parent.path + "." + strconv.Itoa(parent.spawnN)
		parent.spawnN++
	}
	c := getCoro()
	// Reuse the G record an earlier run left at this index, if any.
	id := len(s.gs)
	var g *G
	if id < cap(s.gs) {
		g = s.gs[:id+1][id]
	}
	if g == nil {
		g = &G{stk: stack.NewStack()}
	}
	g.stk.Reset()
	*g = G{
		id:    vclock.TID(id),
		name:  name,
		path:  path,
		s:     s,
		stk:   g.stk,
		state: gReady,
		co:    c,
	}
	c.g, c.fn = g, fn
	s.gs = append(s.gs, g)
	s.runnable = append(s.runnable, g)
	s.strategy.OnSpawn(g.id, s.rng)
	if parent != nil {
		s.emit(parent, trace.Event{Op: trace.OpFork, Child: g.id})
	}
	return g
}

// body runs a modeled goroutine on its coroutine, from its first
// resume to its exit, and then takes the decision of who runs next.
func (s *Scheduler) body(g *G, fn func(*G)) {
	defer func() {
		r := recover()
		if g.frozen {
			return
		}
		if r != nil {
			if _, aborted := r.(abortSignal); !aborted {
				s.result.Failures = append(s.result.Failures,
					fmt.Sprintf("goroutine %q panicked: %v", g.name, r))
			}
		}
		g.state = gDone
		s.removeRunnable(g)
		s.emit(g, trace.Event{Op: trace.OpGoEnd})
		if !s.tearingDown {
			s.turn = s.next()
		}
	}()
	if g.co.abort {
		panic(abortSignal{})
	}
	fn(g)
}

// loop runs on the caller's goroutine and resumes one G at a time
// until the run must end, then ends it. It takes no decision after the
// first: whichever G reaches a scheduling point takes the next one
// itself (see next) and yields the token back with its pick in turn.
func (s *Scheduler) loop() {
	for g := s.next(); g != nil; g = s.turn {
		g.co.switchTo()
	}
	switch {
	case len(s.runnable) > 0:
		s.result.BudgetExceeded = true
	case !s.recordLeaks():
		return // quiescent: all goroutines finished
	}
	s.abortAll()
}

// next takes one scheduling decision for the token holder: the G to run
// next, already marked running and counted as a step, or nil when the
// run must end (nothing runnable, or the step budget is spent).
func (s *Scheduler) next() *G {
	if len(s.runnable) == 0 || s.steps >= s.maxSteps {
		return nil
	}
	idx := s.strategy.Pick(s.runnable, s.steps, s.rng)
	if idx < 0 || idx >= len(s.runnable) {
		idx = 0
	}
	g := s.runnable[idx]
	g.state = gRunning
	s.steps++
	return g
}

// recordLeaks reports every blocked goroutine as leaked, and whether
// there was one. Once nothing is runnable, every G not done is blocked.
func (s *Scheduler) recordLeaks() bool {
	for _, g := range s.gs {
		if g.state == gBlocked {
			s.result.Leaked = append(s.result.Leaked, LeakInfo{
				G: g.id, Name: g.name, BlockedOn: g.blockedOn, Stack: g.stk.Capture(),
			})
			s.emit(g, trace.Event{Op: trace.OpGoLeak})
		}
	}
	return len(s.result.Leaked) > 0
}

// abortAll unwinds every parked goroutine (runnable or blocked), one
// at a time: each is resumed with the abort flag set and runs until
// its body exits.
func (s *Scheduler) abortAll() {
	s.tearingDown = true
	for _, g := range s.gs {
		if g.state == gDone || g.state == gRunning {
			continue
		}
		g.co.abort = true
		g.co.switchTo()
	}
}

func (s *Scheduler) removeRunnable(g *G) {
	for i, r := range s.runnable {
		if r == g {
			s.runnable = append(s.runnable[:i], s.runnable[i+1:]...)
			return
		}
	}
}

// emit delivers an event attributed to g, filling sequence and stack.
func (s *Scheduler) emit(g *G, ev trace.Event) {
	s.seq++
	ev.Seq = s.seq
	ev.G = g.id
	ev.GName = g.name
	ev.Stack = g.stk.Capture()
	s.listeners.HandleEvent(ev)
}

// newAddr allocates a fresh shadow memory cell.
func (s *Scheduler) newAddr() trace.Addr {
	a := s.nextAddr
	s.nextAddr++
	return a
}

// newObj allocates a fresh synchronization object identity.
func (s *Scheduler) newObj() trace.ObjID {
	o := s.nextObj
	s.nextObj++
	return o
}

// point is a scheduling point: the goroutine offers the scheduler the
// chance to run someone else before its next operation executes. It
// takes the decision itself; when the strategy picks it again, it
// simply continues, and otherwise it yields to loop, which resumes the
// pick: one coroutine round trip per preemption.
func (g *G) point() {
	s := g.s
	if s.tearingDown {
		g.freeze()
	}
	g.state = gReady
	if next := s.next(); next != g {
		g.handOff(next)
	}
}

// block parks the goroutine until another goroutine wakes it.
func (g *G) block(reason string) {
	s := g.s
	if s.tearingDown {
		g.freeze()
	}
	g.state = gBlocked
	g.blockedOn = reason
	s.removeRunnable(g)
	g.handOff(s.next())
}

// freeze stops a goroutine that reaches a scheduling point while
// teardown unwinds it: the operation does not happen, nor does any
// later one (each re-freezes), and the G's exit leaves the run alone.
func (g *G) freeze() {
	g.frozen = true
	panic(abortSignal{})
}

// wake moves a blocked goroutine back to the runnable set.
func (s *Scheduler) wake(g *G) {
	if g.state == gBlocked {
		g.state = gReady
		g.blockedOn = ""
		s.runnable = append(s.runnable, g)
	}
}

// wakePollers re-arms every goroutine blocked in a select poll.
func (s *Scheduler) wakePollers() {
	if len(s.pollers) == 0 {
		return
	}
	ps := s.pollers
	s.pollers = nil
	for _, g := range ps {
		s.wake(g)
	}
}

// fail records a model-level failure (the modeled program misused a
// primitive in a way real Go would panic on or forbid).
func (s *Scheduler) fail(g *G, format string, args ...any) {
	s.result.Failures = append(s.result.Failures,
		fmt.Sprintf("g%d(%s): %s", g.id, g.name, fmt.Sprintf(format, args...)))
}

// --- G program-facing helpers ---

// Go launches fn as a new modeled goroutine, mirroring the `go` keyword.
// The fork establishes the parent→child happens-before edge.
func (g *G) Go(name string, fn func(*G)) {
	g.point()
	g.s.spawn(g, name, fn)
}

// Push enters a named function frame on the modeled call stack.
func (g *G) Push(fn, file string, line int) { g.stk.Push(fn, file, line) }

// Pop leaves the innermost frame.
func (g *G) Pop() { g.stk.Pop() }

// Line updates the current source line, so subsequent events carry it.
func (g *G) Line(line int) { g.stk.SetLine(line) }

// Call runs body inside a pushed frame, popping it on the way out
// (including on abort-unwind).
func (g *G) Call(fn, file string, line int, body func()) {
	g.Push(fn, file, line)
	defer g.Pop()
	body()
}

// Yield voluntarily inserts a scheduling point with no event, useful to
// model pure computation between instrumented operations.
func (g *G) Yield() { g.point() }
