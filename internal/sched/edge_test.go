package sched

import "testing"

// Edge cases and accessor coverage for the modeled primitives.

func TestAccessors(t *testing.T) {
	run(t, Options{}, func(g *G) {
		a := NewAtomic(g, "a")
		if a.Addr() == 0 || a.Name() != "a" {
			t.Error("atomic accessors")
		}
		ch := NewChan[int](g, "c", 2)
		if ch.Name() != "c" || ch.Cap() != 2 || ch.Len() != 0 {
			t.Error("chan accessors")
		}
		m := NewMap[string, int](g, "m")
		if m.internal == 0 || m.Name() != "m" {
			t.Error("map accessors")
		}
		m.Put(g, "k", 1)
		if snap := m.Snapshot(); len(snap) != 1 || snap["k"] != 1 {
			t.Error("map snapshot")
		}
		sl := NewSlice[int](g, "s", 1)
		if sl.meta == 0 || sl.Name() != "s" {
			t.Error("slice accessors")
		}
		sl.Set(g, 0, 7)
		if snap := sl.Snapshot(); len(snap) != 1 || snap[0] != 7 {
			t.Error("slice snapshot")
		}
		mu := NewMutex(g, "mu")
		if mu.ID() == 0 || mu.Name() != "mu" {
			t.Error("mutex accessors")
		}
		rw := NewRWMutex(g, "rw")
		if rw.ID() == 0 {
			t.Error("rwmutex accessors")
		}
		if g.ID() != 0 || g.Name() != "main" {
			t.Error("g accessors")
		}
		wgrp := NewWaitGroup(g, "wg")
		if wgrp.Name() != "wg" {
			t.Error("wg accessors")
		}
		ctx := Background(g)
		if ctx.Name() != "background" {
			t.Error("ctx accessors")
		}
	})
}

func TestSliceSetOutOfRangeFails(t *testing.T) {
	res, _ := run(t, Options{}, func(g *G) {
		sl := NewSlice[int](g, "s", 1)
		sl.Set(g, 9, 1)
	})
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %v", res.Failures)
	}
}

func TestSliceHeaderEmitsMetaRead(t *testing.T) {
	_, rec := run(t, Options{}, func(g *G) {
		sl := NewSlice[int](g, "s", 0)
		sl.Header(g)
	})
	found := false
	for _, ev := range rec.Events {
		if ev.Label == "s(meta copy)" {
			found = true
		}
	}
	if !found {
		t.Fatal("Header did not read the meta cell")
	}
}

func TestCloseWakesParkedSenders(t *testing.T) {
	// A sender parked on a full buffered channel (or unbuffered with
	// no receiver) must be failed and released by Close.
	res, _ := run(t, Options{Strategy: NewRoundRobin()}, func(g *G) {
		ch := NewChan[int](g, "ch", 0)
		g.Go("tx", func(g *G) {
			ch.Send(g, 1) // parks: no receiver
		})
		// Let the sender park, then close.
		for i := 0; i < 4; i++ {
			g.Yield()
		}
		ch.Close(g)
	})
	if res.Deadlocked() {
		t.Fatalf("sender not released by close: %+v", res.Leaked)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("expected one send-on-closed failure, got %v", res.Failures)
	}
}

func TestBufferedSendBlockedThenClosed(t *testing.T) {
	res, _ := run(t, Options{Strategy: NewRoundRobin()}, func(g *G) {
		ch := NewChan[int](g, "ch", 1)
		ch.Send(g, 1) // fills the buffer
		g.Go("tx", func(g *G) {
			ch.Send(g, 2) // parks: buffer full
		})
		for i := 0; i < 4; i++ {
			g.Yield()
		}
		ch.Close(g)
	})
	if res.Deadlocked() {
		t.Fatalf("blocked buffered sender not released: %+v", res.Leaked)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %v", res.Failures)
	}
}

func TestSelectSendOnClosedChannelFails(t *testing.T) {
	res, _ := run(t, Options{}, func(g *G) {
		ch := NewChan[int](g, "ch", 1)
		ch.Close(g)
		// A closed channel is "ready" for send — executing the arm
		// surfaces the send-on-closed failure, as real Go panics.
		g.Select(OnSend(ch, 1, nil))
	})
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %v", res.Failures)
	}
}

func TestSelectSendUnbufferedToParkedReceiver(t *testing.T) {
	var got int
	res, _ := run(t, Options{Strategy: NewRoundRobin()}, func(g *G) {
		ch := NewChan[int](g, "ch", 0)
		done := NewChan[int](g, "done", 0)
		g.Go("rx", func(g *G) {
			v, _ := ch.Recv(g) // parks first under round-robin
			got = v
			done.Send(g, 1)
		})
		for !ch.sendReady() { // wait until the receiver has parked
			g.Yield()
		}
		picked := g.Select(OnSend(ch, 77, nil))
		if picked != 0 {
			t.Errorf("picked = %d", picked)
		}
		done.Recv(g)
	})
	if got != 77 || res.Deadlocked() {
		t.Fatalf("got %d, %+v", got, res)
	}
}

func TestSelectRecvDrainsClosedBuffered(t *testing.T) {
	// A closed buffered channel first yields its values, then zero.
	var vals []int
	var oks []bool
	run(t, Options{}, func(g *G) {
		ch := NewChan[int](g, "ch", 2)
		ch.Send(g, 1)
		ch.Close(g)
		for i := 0; i < 2; i++ {
			g.Select(OnRecv(ch, func(v int, ok bool) {
				vals = append(vals, v)
				oks = append(oks, ok)
			}))
		}
	})
	if len(vals) != 2 || vals[0] != 1 || !oks[0] || oks[1] {
		t.Fatalf("drain = %v %v", vals, oks)
	}
}

func TestDoubleCloseFails(t *testing.T) {
	res, _ := run(t, Options{}, func(g *G) {
		ch := NewChan[int](g, "ch", 0)
		ch.Close(g)
		ch.Close(g)
	})
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %v", res.Failures)
	}
}

func TestWaitGroupNegativeCounterFails(t *testing.T) {
	res, _ := run(t, Options{}, func(g *G) {
		wg := NewWaitGroup(g, "wg")
		wg.Done(g)
	})
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %v", res.Failures)
	}
	res2, _ := run(t, Options{}, func(g *G) {
		wg := NewWaitGroup(g, "wg")
		wg.Add(g, -1)
	})
	if len(res2.Failures) != 1 {
		t.Fatalf("failures = %v", res2.Failures)
	}
}

func TestRWMutexUnlockWithoutLockFails(t *testing.T) {
	res, _ := run(t, Options{}, func(g *G) {
		rw := NewRWMutex(g, "rw")
		rw.Unlock(g)
		rw.RUnlock(g)
	})
	if len(res.Failures) != 2 {
		t.Fatalf("failures = %v", res.Failures)
	}
}

func TestRWMutexClone(t *testing.T) {
	res, _ := run(t, Options{}, func(g *G) {
		rw := NewRWMutex(g, "rw")
		rw.Lock(g)
		c := rw.Clone(g)
		c.Lock(g) // the copy shares no state: no deadlock
		c.Unlock(g)
		rw.Unlock(g)
	})
	if res.Deadlocked() || len(res.Failures) > 0 {
		t.Fatalf("%+v", res)
	}
}

func TestSelectChoosesAmongReadyArmsFairly(t *testing.T) {
	// With two ready arms, the random strategy's Choose must pick
	// each arm in some run — Go's select picks uniformly among ready
	// cases, and corpus programs (Listing 9) rely on both arms being
	// reachable.
	picks := make(map[int]int)
	for seed := int64(0); seed < 30; seed++ {
		run(t, Options{Strategy: NewRandom(), Seed: seed}, func(g *G) {
			a := NewChan[int](g, "a", 1)
			b := NewChan[int](g, "b", 1)
			a.Send(g, 1)
			b.Send(g, 2)
			picks[g.Select(OnRecv(a, nil), OnRecv(b, nil))]++
		})
	}
	if picks[0] == 0 || picks[1] == 0 {
		t.Fatalf("select starved an arm: %v", picks)
	}
}
