package detector

import (
	"testing"

	"gorace/internal/sched"
	"gorace/internal/trace"
)

// runWith executes a modeled program with the given detectors attached.
func runWith(t *testing.T, seed int64, strat sched.Strategy, main func(*sched.G), ds ...trace.Listener) *sched.Result {
	t.Helper()
	return sched.Run(main, sched.Options{
		Strategy:  strat,
		Seed:      seed,
		MaxSteps:  1 << 16,
		Listeners: ds,
	})
}

// --- Programs with known verdicts ---

// racyCounter: two goroutines increment an unprotected counter.
func racyCounter(g *sched.G) {
	v := sched.NewVar[int](g, "counter")
	wg := sched.NewWaitGroup(g, "wg")
	for i := 0; i < 2; i++ {
		wg.Add(g, 1)
		g.Go("inc", func(g *sched.G) {
			v.Update(g, func(x int) int { return x + 1 })
			wg.Done(g)
		})
	}
	wg.Wait(g)
}

// lockedCounter: the same program, properly mutex-protected.
func lockedCounter(g *sched.G) {
	v := sched.NewVar[int](g, "counter")
	mu := sched.NewMutex(g, "mu")
	wg := sched.NewWaitGroup(g, "wg")
	for i := 0; i < 2; i++ {
		wg.Add(g, 1)
		g.Go("inc", func(g *sched.G) {
			mu.Lock(g)
			v.Update(g, func(x int) int { return x + 1 })
			mu.Unlock(g)
			wg.Done(g)
		})
	}
	wg.Wait(g)
}

// chanHandoff: writer publishes via channel; the main goroutine reads
// and then updates the value after the recv. Race-free (HB edges via
// the channel), but lock-free — so the Eraser state machine reaches
// SharedModified with an empty candidate set: a lockset false positive.
func chanHandoff(g *sched.G) {
	v := sched.NewVar[int](g, "data")
	ch := sched.NewChan[int](g, "ch", 0)
	g.Go("producer", func(g *sched.G) {
		v.Store(g, 42)
		ch.Send(g, 1)
	})
	ch.Recv(g)
	if got := v.Load(g); got != 42 {
		panic("handoff lost the value")
	}
	v.Store(g, 43) // still ordered after the producer's write
}

func TestFastTrackDetectsWriteWriteRace(t *testing.T) {
	found := false
	for seed := int64(0); seed < 20; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), racyCounter, ft)
		if ft.RaceCount() > 0 {
			found = true
			r := ft.Races()[0]
			if r.First.G == r.Second.G {
				t.Fatalf("self-race reported: %v", r)
			}
			break
		}
	}
	if !found {
		t.Fatal("racy counter never flagged across 20 seeds")
	}
}

func TestFastTrackCleanOnLockedCounter(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), lockedCounter, ft)
		if n := ft.RaceCount(); n != 0 {
			t.Fatalf("seed %d: %d false positives on mutex-protected counter:\n%s",
				seed, n, ft.Races()[0])
		}
	}
}

func TestFastTrackCleanOnChannelHandoff(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), chanHandoff, ft)
		if ft.RaceCount() != 0 {
			t.Fatalf("seed %d: channel handoff flagged:\n%s", seed, ft.Races()[0])
		}
	}
}

func TestEraserFalsePositiveOnChannelHandoff(t *testing.T) {
	// The lockset algorithm does not understand channel edges: the
	// shared var is written and read with no common lock, so Eraser
	// must flag it — the imprecision §3.1 describes.
	er := NewEraser()
	runWith(t, 1, sched.NewRoundRobin(), chanHandoff, er)
	if er.RaceCount() == 0 {
		t.Fatal("Eraser should flag channel-only synchronization")
	}
}

func TestEraserCleanOnLockedCounter(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		er := NewEraser()
		runWith(t, seed, sched.NewRandom(), lockedCounter, er)
		if er.RaceCount() != 0 {
			t.Fatalf("seed %d: Eraser flagged a consistently locked var", seed)
		}
	}
}

func TestEraserInterleavingInsensitive(t *testing.T) {
	// Round-robin lets the first goroutine finish before the second
	// starts, so HB sees the accesses ordered (via wg edges? no — via
	// nothing: they are ordered only by scheduling luck). Eraser still
	// flags the missing lock.
	prog := func(g *sched.G) {
		v := sched.NewVar[int](g, "x")
		done := sched.NewChan[int](g, "done", 2)
		g.Go("a", func(g *sched.G) {
			v.Store(g, 1)
			done.Send(g, 1)
		})
		g.Go("b", func(g *sched.G) {
			v.Store(g, 2)
			done.Send(g, 1)
		})
		done.Recv(g)
		done.Recv(g)
	}
	er := NewEraser()
	ft := NewFastTrack()
	runWith(t, 0, sched.NewRandom(), prog, er, ft)
	if er.RaceCount() == 0 {
		t.Fatal("Eraser must flag the unlocked shared writes regardless of schedule")
	}
	_ = ft // FastTrack may or may not flag, depending on interleaving
}

func TestForkEdgeOrdersParentChild(t *testing.T) {
	prog := func(g *sched.G) {
		v := sched.NewVar[int](g, "x")
		v.Store(g, 1) // before fork: ordered with child's accesses
		ch := sched.NewChan[int](g, "ch", 0)
		g.Go("child", func(g *sched.G) {
			v.Store(g, 2)
			ch.Send(g, 1)
		})
		ch.Recv(g)
		v.Load(g) // after recv: ordered after child's store
	}
	for seed := int64(0); seed < 10; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), prog, ft)
		if ft.RaceCount() != 0 {
			t.Fatalf("seed %d: fork/channel edges missed:\n%s", seed, ft.Races()[0])
		}
	}
}

func TestWaitGroupEdge(t *testing.T) {
	prog := func(g *sched.G) {
		v := sched.NewVar[int](g, "x")
		wg := sched.NewWaitGroup(g, "wg")
		wg.Add(g, 1)
		g.Go("w", func(g *sched.G) {
			v.Store(g, 1)
			wg.Done(g)
		})
		wg.Wait(g)
		v.Load(g)
	}
	for seed := int64(0); seed < 10; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), prog, ft)
		if ft.RaceCount() != 0 {
			t.Fatalf("seed %d: WaitGroup edge missed", seed)
		}
	}
}

func TestMisplacedWaitGroupAddRaces(t *testing.T) {
	// Listing 10: Add inside the goroutine. Under first-runnable
	// replay the parent reaches Wait with count 0 and reads while the
	// worker writes.
	prog := func(g *sched.G) {
		results := sched.NewSlice[int](g, "results", 1)
		wg := sched.NewWaitGroup(g, "wg")
		g.Go("worker", func(g *sched.G) {
			wg.Add(g, 1) // too late
			results.Set(g, 0, 7)
			wg.Done(g)
		})
		wg.Wait(g)
		results.Get(g, 0)
	}
	found := false
	for seed := int64(0); seed < 30; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), prog, ft)
		if ft.RaceCount() > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("misplaced Add never produced a detected race")
	}
}

func TestRWMutexReadersDoNotRace(t *testing.T) {
	prog := func(g *sched.G) {
		v := sched.NewVarOf(g, "cfg", 1)
		mu := sched.NewRWMutex(g, "rw")
		wg := sched.NewWaitGroup(g, "wg")
		wg.Add(g, 1)
		g.Go("writer", func(g *sched.G) {
			mu.Lock(g)
			v.Store(g, 2)
			mu.Unlock(g)
			wg.Done(g)
		})
		for i := 0; i < 3; i++ {
			wg.Add(g, 1)
			g.Go("reader", func(g *sched.G) {
				mu.RLock(g)
				v.Load(g)
				mu.RUnlock(g)
				wg.Done(g)
			})
		}
		wg.Wait(g)
	}
	for seed := int64(0); seed < 20; seed++ {
		ft := NewFastTrack()
		er := NewEraser()
		runWith(t, seed, sched.NewRandom(), prog, ft, er)
		if ft.RaceCount() != 0 {
			t.Fatalf("seed %d: HB flagged a correct RWMutex program:\n%s", seed, ft.Races()[0])
		}
		if er.RaceCount() != 0 {
			t.Fatalf("seed %d: Eraser flagged a correct RWMutex program", seed)
		}
	}
}

func TestMutationUnderRLockRaces(t *testing.T) {
	// Listing 11: writing shared state while holding only the read lock.
	prog := func(g *sched.G) {
		ready := sched.NewVar[bool](g, "g.ready")
		mu := sched.NewRWMutex(g, "g.mutex")
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 2; i++ {
			wg.Add(g, 1)
			g.Go("updateGate", func(g *sched.G) {
				mu.RLock(g)
				ready.Store(g, true) // write under read lock
				mu.RUnlock(g)
				wg.Done(g)
			})
		}
		wg.Wait(g)
	}
	foundHB := false
	for seed := int64(0); seed < 30; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), prog, ft)
		if ft.RaceCount() > 0 {
			foundHB = true
			break
		}
	}
	if !foundHB {
		t.Fatal("write-under-RLock never flagged by HB detector")
	}
	er := NewEraser()
	runWith(t, 0, sched.NewRoundRobin(), prog, er)
	if er.RaceCount() == 0 {
		t.Fatal("write-under-RLock must be flagged by the lockset detector")
	}
}

func TestAtomicsDoNotRace(t *testing.T) {
	prog := func(g *sched.G) {
		a := sched.NewAtomic(g, "flag")
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 2; i++ {
			wg.Add(g, 1)
			g.Go("w", func(g *sched.G) {
				a.Store(g, 1)
				a.Add(g, 1)
				a.Load(g)
				wg.Done(g)
			})
		}
		wg.Wait(g)
	}
	for seed := int64(0); seed < 20; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), prog, ft)
		if ft.RaceCount() != 0 {
			t.Fatalf("seed %d: atomic ops flagged:\n%s", seed, ft.Races()[0])
		}
	}
}

func TestPartialAtomicsRace(t *testing.T) {
	// §4.9.2: atomic on the write side, plain on the read side.
	prog := func(g *sched.G) {
		a := sched.NewAtomic(g, "flag")
		wg := sched.NewWaitGroup(g, "wg")
		wg.Add(g, 1)
		g.Go("writer", func(g *sched.G) {
			a.Store(g, 1)
			wg.Done(g)
		})
		a.PlainLoad(g) // forgot atomic here
		wg.Wait(g)
	}
	found := false
	for seed := int64(0); seed < 30; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), prog, ft)
		if ft.RaceCount() > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("plain read vs atomic store never flagged")
	}
}

// TestEpochPlainWriteRacesAtomicRead: a plain write races an earlier
// concurrent atomic read of the same cell, which only the write arm's
// scan of the atomic-read history can see; an atomic write does not.
func TestEpochPlainWriteRacesAtomicRead(t *testing.T) {
	for _, tc := range []struct {
		write trace.Op
		want  int
	}{
		{trace.OpWrite, 1},
		{trace.OpAtomicStore, 0},
	} {
		e := NewEpoch()
		for _, ev := range []trace.Event{
			{Seq: 1, G: 0, Op: trace.OpFork, Child: 1},
			{Seq: 2, G: 1, Op: trace.OpAtomicLoad, Addr: 1},
			{Seq: 3, G: 0, Op: tc.write, Addr: 1},
		} {
			e.HandleEvent(ev)
		}
		if got := e.Count(); got != tc.want {
			t.Errorf("%v after a concurrent atomic load: %d races, want %d", tc.write, got, tc.want)
		}
	}
}

func TestReadReadDoesNotRace(t *testing.T) {
	prog := func(g *sched.G) {
		v := sched.NewVarOf(g, "x", 1)
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 3; i++ {
			wg.Add(g, 1)
			g.Go("r", func(g *sched.G) {
				v.Load(g)
				wg.Done(g)
			})
		}
		wg.Wait(g)
	}
	for seed := int64(0); seed < 10; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), prog, ft)
		if ft.RaceCount() != 0 {
			t.Fatalf("seed %d: concurrent reads flagged", seed)
		}
	}
}

func TestMaxReportsPerCellCapsFlood(t *testing.T) {
	prog := func(g *sched.G) {
		v := sched.NewVar[int](g, "x")
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 2; i++ {
			wg.Add(g, 1)
			g.Go("w", func(g *sched.G) {
				for j := 0; j < 50; j++ {
					v.Store(g, j)
				}
				wg.Done(g)
			})
		}
		wg.Wait(g)
	}
	ft := NewFastTrack()
	ft.MaxReportsPerCell = 3
	runWith(t, 5, sched.NewRandom(), prog, ft)
	if n := ft.RaceCount(); n > 3 {
		t.Fatalf("cap ignored: %d reports", n)
	}
}

func TestHybridCandidates(t *testing.T) {
	// A program whose race stays dormant under round-robin: the HB
	// detector sees nothing, the lockset detector still flags it.
	prog := func(g *sched.G) {
		v := sched.NewVar[int](g, "x")
		done := sched.NewChan[int](g, "done", 2)
		g.Go("a", func(g *sched.G) {
			v.Store(g, 1)
			done.Send(g, 1)
		})
		done.Recv(g) // serializes b after a under any schedule? No:
		// recv only orders main after a; b below is unordered with a's
		// write only through main's fork — which *does* order it.
		// So this really is race-free as written... make b racy:
		g.Go("b", func(g *sched.G) {
			v.Store(g, 2)
			done.Send(g, 1)
		})
		done.Recv(g)
	}
	// Note: a's write happens-before the fork of b (via done+fork), so
	// the program is genuinely race-free; Eraser still flags it as a
	// lockset candidate. That is precisely a lockset false positive.
	h := NewHybrid()
	runWith(t, 0, sched.NewRoundRobin(), prog, h)
	if got := h.HB.RaceCount(); got != 0 {
		t.Fatalf("HB flagged a race-free program: %d", got)
	}
	if len(h.Candidates()) == 0 {
		t.Fatal("hybrid should surface the lockset candidate")
	}
}

func TestEraserStateMachine(t *testing.T) {
	var addr trace.Addr
	er := NewEraser()
	runWith(t, 0, sched.NewReplay(nil), func(g *sched.G) {
		v := sched.NewVar[int](g, "x")
		addr = v.Addr()
		v.Store(g, 1) // virgin -> exclusive(main)
		ch := sched.NewChan[int](g, "ch", 0)
		g.Go("r", func(g *sched.G) {
			v.Load(g) // exclusive -> shared
			ch.Send(g, 1)
		})
		ch.Recv(g)
		g.Go("w", func(g *sched.G) {
			v.Store(g, 2) // shared -> shared-modified
			ch.Send(g, 1)
		})
		ch.Recv(g)
	}, er)
	if c := er.cells.at(addr); !c.seen || c.state.String() != "shared-modified" {
		t.Fatalf("state = %s (seen %v)", c.state, c.seen)
	}
	if er.RaceCount() == 0 {
		t.Fatal("empty candidate lockset must report")
	}
}

// Cross-validation: on a battery of random programs, the epoch
// detector's racy-address set must equal FastTrack's, and DJIT must be
// a superset (DJIT keeps full read/write histories, so it can flag
// pairs FastTrack forgets after its first race on a cell).
func TestDetectorCrossValidation(t *testing.T) {
	progs := []func(*sched.G){racyCounter, lockedCounter, chanHandoff}
	for pi, prog := range progs {
		for seed := int64(0); seed < 15; seed++ {
			ft := NewFastTrack()
			ft.MaxReportsPerCell = 1 << 30
			ep := NewEpoch()
			dj := NewDJIT()
			runWith(t, seed, sched.NewRandom(), prog, ft, ep, dj)

			ftAddrs := make(map[trace.Addr]bool)
			for _, r := range ft.Races() {
				ftAddrs[r.Second.Addr] = true
			}
			epAddrs := ep.RacyAddrs()
			if len(ftAddrs) != len(epAddrs) {
				t.Fatalf("prog %d seed %d: fasttrack addrs %v != epoch addrs %v",
					pi, seed, ftAddrs, epAddrs)
			}
			for a := range ftAddrs {
				if !epAddrs[a] {
					t.Fatalf("prog %d seed %d: addr %d flagged by fasttrack, not epoch", pi, seed, a)
				}
			}
			for a := range epAddrs {
				if !dj.RacyAddrs()[a] {
					t.Fatalf("prog %d seed %d: addr %d flagged by epoch, not djit", pi, seed, a)
				}
			}
			if ep.Count() > 0 && dj.Count() == 0 {
				t.Fatalf("prog %d seed %d: epoch found races, djit none", pi, seed)
			}
		}
	}
}

func TestOfflineReplayMatchesOnline(t *testing.T) {
	// Post-facto mode (§3.3): record the trace, replay into a fresh
	// detector, and require identical verdicts.
	rec := &trace.Recorder{}
	online := NewFastTrack()
	runWith(t, 9, sched.NewRandom(), racyCounter, rec, online)
	offline := NewFastTrack()
	rec.Replay(offline)
	if online.RaceCount() != offline.RaceCount() {
		t.Fatalf("online %d races, offline %d", online.RaceCount(), offline.RaceCount())
	}
	for i, r := range online.Races() {
		if r.Hash() != offline.Races()[i].Hash() {
			t.Fatalf("report %d hash differs between online and offline", i)
		}
	}
}

func TestReportContainsBothStacks(t *testing.T) {
	prog := func(g *sched.G) {
		v := sched.NewVar[int](g, "job")
		wg := sched.NewWaitGroup(g, "wg")
		wg.Add(g, 1)
		g.Go("worker", func(g *sched.G) {
			g.Call("ProcessJob", "listing1.go", 3, func() {
				v.Load(g)
			})
			wg.Done(g)
		})
		g.Call("rangeLoop", "listing1.go", 1, func() {
			v.Store(g, 2)
		})
		wg.Wait(g)
	}
	var got bool
	for seed := int64(0); seed < 30 && !got; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), prog, ft)
		for _, r := range ft.Races() {
			if r.First.Stack.Depth() > 0 && r.Second.Stack.Depth() > 0 {
				got = true
			}
		}
	}
	if !got {
		t.Fatal("no report carried both calling contexts")
	}
}

func TestStatsCounters(t *testing.T) {
	ft := NewFastTrack()
	ep := NewEpoch()
	er := NewEraser()
	runWith(t, 4, sched.NewRandom(), racyCounter, ft, ep, er)
	for _, s := range []Stats{ft.Stats(), ep.Stats(), er.Stats()} {
		if s.Events == 0 || s.Accesses == 0 {
			t.Fatalf("empty stats: %s", s)
		}
		if s.Accesses > s.Events || s.SyncOps > s.Events {
			t.Fatalf("inconsistent stats: %s", s)
		}
	}
	if ft.Stats().Cells == 0 || ft.Stats().Goroutines < 3 {
		t.Fatalf("fasttrack shadow stats: %s", ft.Stats())
	}
	// FastTrack and Epoch consumed the same stream.
	if ft.Stats().Events != ep.Stats().Events {
		t.Fatal("detectors saw different event counts")
	}
	if ft.Stats().String() == "" {
		t.Fatal("empty Stats string")
	}
}

func TestBufferedSlotEdge(t *testing.T) {
	// Go memory model: the k-th receive on a channel with capacity C
	// happens before the (k+C)-th send completes. With C=1: the
	// consumer's store before its recv must be visible to the
	// producer after its second send.
	prog := func(g *sched.G) {
		x := sched.NewVar[int](g, "x")
		ch := sched.NewChan[int](g, "ch", 1)
		done := sched.NewChan[int](g, "done", 0)
		g.Go("consumer", func(g *sched.G) {
			x.Store(g, 5) // before the 1st recv
			ch.Recv(g)
			done.Send(g, 1)
		})
		ch.Send(g, 1) // 1st send: buffered, no block
		ch.Send(g, 2) // 2nd send: completes only after the 1st recv
		x.Load(g)     // ordered after the consumer's store via the slot edge
		done.Recv(g)
	}
	for seed := int64(0); seed < 25; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), prog, ft)
		if ft.RaceCount() != 0 {
			t.Fatalf("seed %d: capacity back-pressure edge missed:\n%s", seed, ft.Races()[0])
		}
	}
}

func TestCloseEdge(t *testing.T) {
	// A close happens before a receive that observes the close.
	prog := func(g *sched.G) {
		x := sched.NewVar[int](g, "x")
		ch := sched.NewChan[int](g, "ch", 0)
		g.Go("closer", func(g *sched.G) {
			x.Store(g, 9)
			ch.Close(g)
		})
		_, ok := ch.Recv(g)
		if !ok {
			x.Load(g) // ordered after the closer's store via the close edge
		}
	}
	for seed := int64(0); seed < 25; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), prog, ft)
		if ft.RaceCount() != 0 {
			t.Fatalf("seed %d: close edge missed:\n%s", seed, ft.Races()[0])
		}
	}
}

func TestNoFalseEdgeFromUnrelatedChannel(t *testing.T) {
	// Synchronizing on one channel must not order accesses that only
	// a *different* channel could order: x is written by g1 and read
	// by main with no connecting edge — race — even though both
	// goroutines are busy with channel traffic elsewhere.
	prog := func(g *sched.G) {
		x := sched.NewVar[int](g, "x")
		chA := sched.NewChan[int](g, "a", 1)
		chB := sched.NewChan[int](g, "b", 1)
		g.Go("w", func(g *sched.G) {
			chA.Send(g, 1)
			x.Store(g, 1) // after its send: not covered by main's recv of B
			chB.Send(g, 1)
		})
		chB.Recv(g) // only orders against w's chB.Send... which is AFTER the store
		// x.Load here would be ordered (store happens before chB.Send).
		// To create the race, read BEFORE synchronizing on anything
		// that covers the store:
		_ = chA // main never receives from chA
		x.Load(g)
	}
	// The load is ordered after the store via chB (store precedes
	// chB.Send which precedes main's recv) — so this program is
	// race-FREE; assert the detector does not overreact, then flip it.
	for seed := int64(0); seed < 25; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), prog, ft)
		if ft.RaceCount() != 0 {
			t.Fatalf("seed %d: false positive:\n%s", seed, ft.Races()[0])
		}
	}

	racy := func(g *sched.G) {
		x := sched.NewVar[int](g, "x")
		chB := sched.NewChan[int](g, "b", 1)
		g.Go("w", func(g *sched.G) {
			chB.Send(g, 1)
			x.Store(g, 1) // after the send: nothing orders it with main
		})
		chB.Recv(g)
		x.Load(g)
	}
	found := false
	for seed := int64(0); seed < 40 && !found; seed++ {
		ft := NewFastTrack()
		runWith(t, seed, sched.NewRandom(), racy, ft)
		found = ft.RaceCount() > 0
	}
	if !found {
		t.Fatal("store-after-send vs recv-side load never flagged")
	}
}
