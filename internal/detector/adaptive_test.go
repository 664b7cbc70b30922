package detector

import (
	"testing"

	"gorace/internal/progen"
	"gorace/internal/report"
	"gorace/internal/sched"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// legacyFastTrack is a reference copy of the pre-adaptive FastTrack
// shadow representation: every cell keeps its read history as a plain
// per-goroutine list, with no epoch fast path, no promotion, and no
// demotion. The adaptive detector must produce byte-identical report
// sequences — the adaptive representation is a cost optimization, not
// a semantics change — and this replica is the pin that keeps it so.
type legacyFastTrack struct {
	pool       *vclock.Pool
	clocks     []*vclock.VC
	objClocks  []*vclock.VC
	cells      []legacyCell
	addrIx     sparseIndex
	objIx      sparseIndex
	locks      *lockTracker
	races      []report.Race
	maxReports int
}

type legacyCell struct {
	seen     bool
	hasWrite bool
	write    legacyAccess
	reads    []legacyAccess
	reports  int
}

// legacyAccess is the pre-compaction prior access: the full report
// context carried inline in the cell, next to the clock component.
type legacyAccess struct {
	report.Access
	time uint32
}

func newLegacyFastTrack() *legacyFastTrack {
	return &legacyFastTrack{
		pool:       vclock.NewPool(),
		locks:      newLockTracker(),
		maxReports: 8,
	}
}

func (ft *legacyFastTrack) clockOf(g vclock.TID) *vclock.VC {
	for int(g) >= len(ft.clocks) {
		ft.clocks = append(ft.clocks, nil)
	}
	if ft.clocks[g] == nil {
		c := ft.pool.Acquire()
		c.Set(g, 1)
		ft.clocks[g] = c
	}
	return ft.clocks[g]
}

func (ft *legacyFastTrack) objClock(o trace.ObjID) *vclock.VC {
	o = trace.ObjID(ft.objIx.local(uint64(o)))
	for int(o) >= len(ft.objClocks) {
		ft.objClocks = append(ft.objClocks, nil)
	}
	if ft.objClocks[o] == nil {
		ft.objClocks[o] = ft.pool.Acquire()
	}
	return ft.objClocks[o]
}

func (ft *legacyFastTrack) cell(a trace.Addr) *legacyCell {
	a = trace.Addr(ft.addrIx.local(uint64(a)))
	for int(a) >= len(ft.cells) {
		ft.cells = append(ft.cells, legacyCell{})
	}
	c := &ft.cells[a]
	c.seen = true
	return c
}

func (ft *legacyFastTrack) newAccess(ev trace.Event) legacyAccess {
	return legacyAccess{
		Access: report.Access{
			G: ev.G, GName: ev.GName, Op: ev.Op, Addr: ev.Addr, Seq: ev.Seq,
			Stack: ev.Stack, Label: ev.Label, Atomic: ev.Op.IsAtomic(),
			Locks: ft.locks.heldLabels(ev.G),
		},
		time: ft.clockOf(ev.G).Get(ev.G),
	}
}

func (ft *legacyFastTrack) HandleEvent(ev trace.Event) {
	switch ev.Op {
	case trace.OpFork:
		parent := ft.clockOf(ev.G)
		child := ft.pool.Acquire()
		parent.CopyInto(child)
		child.Tick(ev.Child)
		for int(ev.Child) >= len(ft.clocks) {
			ft.clocks = append(ft.clocks, nil)
		}
		ft.clocks[ev.Child] = child
		parent.Tick(ev.G)

	case trace.OpAcquire:
		ft.locks.handle(ev)
		ft.objClock(ev.Obj).JoinInto(ft.clockOf(ev.G))

	case trace.OpRelease:
		if ft.locks.handle(ev) && ev.Kind == trace.KindRWRead {
			return
		}
		ft.clockOf(ev.G).JoinInto(ft.objClock(ev.Obj))
		ft.clockOf(ev.G).Tick(ev.G)

	case trace.OpRead, trace.OpAtomicLoad:
		c := ft.cell(ev.Addr)
		cur := ft.clockOf(ev.G)
		if c.hasWrite && c.write.G != ev.G && c.write.time > cur.Get(c.write.G) {
			if !(c.write.Atomic && ev.Op.IsAtomic()) {
				ft.report(ev, c, c.write)
			}
		}
		a := ft.newAccess(ev)
		for i := range c.reads {
			if c.reads[i].G == ev.G {
				c.reads[i] = a
				return
			}
		}
		c.reads = append(c.reads, a)

	case trace.OpWrite, trace.OpAtomicStore, trace.OpAtomicRMW:
		c := ft.cell(ev.Addr)
		cur := ft.clockOf(ev.G)
		if c.hasWrite && c.write.G != ev.G && c.write.time > cur.Get(c.write.G) {
			if !(c.write.Atomic && ev.Op.IsAtomic()) {
				ft.report(ev, c, c.write)
			}
		}
		for i := range c.reads {
			r := &c.reads[i]
			if r.G == ev.G {
				continue
			}
			if r.time > cur.Get(r.G) && !(r.Atomic && ev.Op.IsAtomic()) {
				ft.report(ev, c, *r)
			}
		}
		c.write = ft.newAccess(ev)
		c.hasWrite = true
		c.reads = c.reads[:0]
	}
}

func (ft *legacyFastTrack) report(ev trace.Event, c *legacyCell, prior legacyAccess) {
	if c.reports >= ft.maxReports {
		return
	}
	c.reports++
	first := prior.Access
	first.Addr = ev.Addr
	ft.races = append(ft.races, report.Race{
		First:    first,
		Second:   ft.newAccess(ev).Access,
		Detector: "fasttrack-hb",
		Seq:      ev.Seq,
	})
}

// raceHashes renders a report sequence as its ordered dedup hashes.
func raceHashes(races []report.Race) []string {
	out := make([]string, len(races))
	for i, r := range races {
		out[i] = r.Hash()
	}
	return out
}

// compareToLegacy runs prog under both representations and fails on
// the first divergence in the ordered race-hash sequence (a stronger
// check than set equality: report order and multiplicity must match
// too, since downstream dedup keeps first manifestations).
func compareToLegacy(t *testing.T, name string, prog func(*sched.G), seed int64) *FastTrack {
	t.Helper()
	adaptive := NewFastTrack()
	legacy := newLegacyFastTrack()
	sched.Run(prog, sched.Options{
		Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 18,
		Listeners: []trace.Listener{adaptive, legacy},
	})
	got, want := raceHashes(adaptive.Races()), raceHashes(legacy.races)
	if len(got) != len(want) {
		t.Fatalf("%s seed %d: adaptive reported %d races, legacy %d", name, seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s seed %d: report %d hash diverged:\nadaptive %s\nlegacy   %s",
				name, seed, i, got[i], want[i])
		}
	}
	return adaptive
}

// CompareToLegacy exposes compareToLegacy to the external test
// package, which can import progs (progs depends on this package).
var CompareToLegacy = compareToLegacy

// TestAdaptiveFastTrackMatchesLegacyOnProgen pins the adaptive
// representation to the pre-adaptive one over 60 random programs, and
// checks the sweep exercised the adaptive machinery at all (a suite
// where nothing ever promotes would prove nothing).
func TestAdaptiveFastTrackMatchesLegacyOnProgen(t *testing.T) {
	var promotions, demotions, fastReads int
	for seed := int64(0); seed < 60; seed++ {
		prog := progen.Generate(seed, progen.Params{})
		ft := compareToLegacy(t, "progen", prog.Main(), seed)
		st := ft.Stats()
		promotions += st.Promotions
		demotions += st.Demotions
		fastReads += st.FastPathReads
		if st.CheckedAccesses != st.Accesses {
			t.Fatalf("seed %d: unsampled detector checked %d of %d accesses",
				seed, st.CheckedAccesses, st.Accesses)
		}
	}
	if promotions == 0 || demotions == 0 || fastReads == 0 {
		t.Fatalf("suite never exercised the adaptive machinery: promotions=%d demotions=%d fastreads=%d",
			promotions, demotions, fastReads)
	}
}

// TestSampleRateOneIsIdentity: a Sampled gate at rate 1 forwards every
// event, so the wrapped detector's reports are byte-identical to the
// unwrapped detector's, and New does not even bother wrapping.
func TestSampleRateOneIsIdentity(t *testing.T) {
	d, err := New("fasttrack", WithSampleRate(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, wrapped := d.(*Sampled); wrapped {
		t.Fatal("New(WithSampleRate(1)) wrapped the detector; rate 1 means no sampling")
	}
	for seed := int64(0); seed < 20; seed++ {
		prog := progen.Generate(seed, progen.Params{})
		plain := NewFastTrack()
		gated := NewSampled(NewFastTrack(), 1)
		gated.SetRunSeed(seed)
		sched.Run(prog.Main(), sched.Options{
			Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 18,
			Listeners: []trace.Listener{plain, gated},
		})
		got, want := raceHashes(gated.Races()), raceHashes(plain.Races())
		if len(got) != len(want) {
			t.Fatalf("seed %d: rate-1 gate reported %d races, plain %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: report %d diverged under a rate-1 gate", seed, i)
			}
		}
		st := gated.Stats()
		if st.SkippedAccesses != 0 || st.CheckedAccesses != st.Accesses {
			t.Fatalf("seed %d: rate-1 gate skipped %d and checked %d of %d accesses",
				seed, st.SkippedAccesses, st.CheckedAccesses, st.Accesses)
		}
	}
}

// TestSampledRunReproducible: the same (seed, rate) must yield the
// same reports and the same checked/skipped split on every execution —
// the property that makes sampled campaigns placement-independent.
func TestSampledRunReproducible(t *testing.T) {
	run := func(seed int64) ([]string, Stats) {
		s := NewSampled(NewFastTrack(), 4)
		s.SetRunSeed(seed)
		prog := progen.Generate(seed, progen.Params{})
		sched.Run(prog.Main(), sched.Options{
			Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 18,
			Listeners: []trace.Listener{s},
		})
		return raceHashes(s.Races()), s.Stats()
	}
	for seed := int64(0); seed < 10; seed++ {
		h1, st1 := run(seed)
		h2, st2 := run(seed)
		if len(h1) != len(h2) {
			t.Fatalf("seed %d: %d vs %d races across identical sampled runs", seed, len(h1), len(h2))
		}
		for i := range h1 {
			if h1[i] != h2[i] {
				t.Fatalf("seed %d: report %d differs across identical sampled runs", seed, i)
			}
		}
		if st1 != st2 {
			t.Fatalf("seed %d: stats differ across identical sampled runs:\n%v\n%v", seed, st1, st2)
		}
		if st1.CheckedAccesses+st1.SkippedAccesses != st1.Accesses {
			t.Fatalf("seed %d: checked %d + skipped %d != accesses %d",
				seed, st1.CheckedAccesses, st1.SkippedAccesses, st1.Accesses)
		}
	}
}
