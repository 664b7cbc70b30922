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
	resume    chan resumeMsg // its trampoline's wake channel
	blockedOn string
	// frozen is set when the G reaches a scheduling point while being
	// unwound by teardown. The G stops there for good: it emits
	// nothing more, and its exit leaves the run's state alone.
	frozen bool
	spawnN int // children spawned so far (path suffix allocator)
	allocN int // stable-mode shadow cells allocated by this G
	objN   int // stable-mode sync objects allocated by this G
}

type resumeMsg struct{ abort bool }

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
	// parked hands the token back to loop: only when the run must end
	// (quiescence, deadlock, budget) and, during teardown, from each
	// unwound G.
	parked      chan struct{}
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

// schedPool recycles schedulers. A pooled one keeps its parked
// channel, its gs and runnable slices, and the previous run's G records
// with their frame buffers; a campaign starts one scheduler per
// execution, and these would otherwise be its largest fixed garbage.
var schedPool = sync.Pool{New: func() any { return &Scheduler{parked: make(chan struct{})} }}

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
	*s = Scheduler{gs: s.gs[:0], runnable: s.runnable[:0], parked: s.parked}
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

// maxIdleTrampolines bounds the idle list: at most this many parked
// trampolines (and their grown stacks, a few KB each) outlive the runs
// that used them. A nightly execution spawns a handful of Gs, so 256
// covers every live G of many concurrent schedulers; a run that spawns
// more starts the extra trampolines afresh, and they exit when done.
const maxIdleTrampolines = 256

// idleTrampolines is the package-wide idle list, shared by concurrent
// schedulers.
var idleTrampolines = make(chan *trampoline, maxIdleTrampolines)

// trampoline is a real goroutine that runs modeled goroutines one
// after another. Reusing it keeps its stack grown, so a spawn costs
// neither a go statement nor a channel allocation nor stack growth on
// the G's first operations.
type trampoline struct {
	wake chan resumeMsg
	g    *G
	fn   func(*G)
}

// run executes one modeled goroutine per wake-up, then parks on the
// idle list, or exits if the list is full.
func (t *trampoline) run() {
	for {
		msg := <-t.wake
		t.g.s.body(t.g, t.fn, msg)
		t.g, t.fn = nil, nil
		select {
		case idleTrampolines <- t:
		default:
			return
		}
	}
}

// spawn creates a modeled goroutine. parent is nil only for main.
func (s *Scheduler) spawn(parent *G, name string, fn func(*G)) *G {
	path := "0"
	if parent != nil {
		path = parent.path + "." + strconv.Itoa(parent.spawnN)
		parent.spawnN++
	}
	var t *trampoline
	select {
	case t = <-idleTrampolines:
	default:
		t = &trampoline{wake: make(chan resumeMsg)}
		go t.run()
	}
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
		id:     vclock.TID(id),
		name:   name,
		path:   path,
		s:      s,
		stk:    g.stk,
		state:  gReady,
		resume: t.wake,
	}
	t.g, t.fn = g, fn
	s.gs = append(s.gs, g)
	s.runnable = append(s.runnable, g)
	s.strategy.OnSpawn(g.id, s.rng)
	if parent != nil {
		s.emit(parent, trace.Event{Op: trace.OpFork, Child: g.id})
	}
	return g
}

// body runs a modeled goroutine on its trampoline, from its first
// resume message to its exit, and then passes the token on.
func (s *Scheduler) body(g *G, fn func(*G), first resumeMsg) {
	defer func() {
		r := recover()
		if g.frozen {
			s.parked <- struct{}{}
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
		if s.tearingDown {
			s.parked <- struct{}{}
			return
		}
		s.dispatch(s.next())
	}()
	if first.abort {
		panic(abortSignal{})
	}
	fn(g)
}

// loop starts the run and, once the token comes back, ends it; it runs
// on the caller's goroutine. Between the two, the token passes
// directly from G to G: whichever G reaches a scheduling point takes
// the next decision itself (see next).
func (s *Scheduler) loop() {
	if g := s.next(); g != nil {
		g.resume <- resumeMsg{}
		<-s.parked
	}
	if len(s.runnable) == 0 {
		if s.liveCount() == 0 {
			return // quiescent: all goroutines finished
		}
		s.recordLeaks()
		s.abortAll()
		return
	}
	s.result.BudgetExceeded = true
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

// dispatch passes the token to g, or back to loop when g is nil.
func (s *Scheduler) dispatch(g *G) {
	if g == nil {
		s.parked <- struct{}{}
		return
	}
	g.resume <- resumeMsg{}
}

func (s *Scheduler) liveCount() int {
	n := 0
	for _, g := range s.gs {
		if g.state != gDone {
			n++
		}
	}
	return n
}

func (s *Scheduler) recordLeaks() {
	for _, g := range s.gs {
		if g.state == gBlocked {
			s.result.Leaked = append(s.result.Leaked, LeakInfo{
				G: g.id, Name: g.name, BlockedOn: g.blockedOn, Stack: g.stk.Capture(),
			})
			s.emit(g, trace.Event{Op: trace.OpGoLeak})
		}
	}
}

// abortAll unwinds every parked goroutine (runnable or blocked), one
// at a time: each unwound G hands the token straight back.
func (s *Scheduler) abortAll() {
	s.tearingDown = true
	for _, g := range s.gs {
		if g.state == gDone || g.state == gRunning {
			continue
		}
		g.resume <- resumeMsg{abort: true}
		<-s.parked
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
// simply continues.
func (g *G) point() {
	s := g.s
	if s.tearingDown {
		g.freeze()
	}
	g.state = gReady
	next := s.next()
	if next == g {
		return
	}
	s.dispatch(next)
	g.wait()
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
	s.dispatch(s.next())
	g.wait()
}

// wait parks the goroutine until it is handed the token, and unwinds
// it if the token comes with an abort.
func (g *G) wait() {
	if msg := <-g.resume; msg.abort {
		panic(abortSignal{})
	}
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
