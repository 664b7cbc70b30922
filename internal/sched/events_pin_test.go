package sched_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"gorace/internal/patterns"
	"gorace/internal/progen"
	"gorace/internal/progs"
	"gorace/internal/sched"
	"gorace/internal/trace"
)

// eventsPinDigest is the digest TestEventStreamsPinned computes over the
// scheduler's event streams. Any change to what a modeled operation
// emits, in which order or under which identity, changes it.
const eventsPinDigest = "2eb5901f92f1e6e777f06a7e2b2076dc376712154ff46ed9655ebc8071d62fb4"

// TestEventStreamsPinned hashes every event (Seq, G, Op, Addr, Obj,
// Kind, Child, Label) and each run's failures and leaked goroutines,
// for every corpus pattern and instrumented program, racy and fixed,
// the first 16 generated programs and edgePrograms, under every
// registered strategy and seeds 0–7. The modeled channel, mutex, cond
// and map operations must keep emitting exactly these streams: a
// refactor of them that reorders one event or moves one scheduling
// point fails here.
func TestEventStreamsPinned(t *testing.T) {
	h := sha256.New()
	run := func(label string, main func(*sched.G)) {
		if main == nil {
			return
		}
		for _, strat := range sched.StrategyNames() {
			for seed := int64(0); seed < 8; seed++ {
				pinEvents(t, h, fmt.Sprintf("%s %s %d", label, strat, seed), strat, seed, main)
			}
		}
	}
	for _, p := range patterns.All() {
		run(p.ID+"/racy", p.Racy)
		run(p.ID+"/fixed", p.Fixed)
	}
	for _, p := range progs.Programs() {
		run("prog:"+p.Name+"/racy", p.Racy)
		run("prog:"+p.Name+"/fixed", p.Fixed)
	}
	for seed := int64(0); seed < 16; seed++ {
		run(fmt.Sprintf("progen/%d", seed), progen.Generate(seed, progen.Params{}).Main())
	}
	for _, p := range edgePrograms {
		run("edge/"+p.name, p.main)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != eventsPinDigest {
		t.Fatalf("event-stream digest = %s, want %s", got, eventsPinDigest)
	}
}

func pinEvents(t *testing.T, h hash.Hash, label, strat string, seed int64, main func(*sched.G)) {
	t.Helper()
	s, err := sched.NewStrategy(strat)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%s\n", label)
	var buf [8 * 7]byte
	res := sched.Run(main, sched.Options{
		Strategy: s, Seed: seed, MaxSteps: 1 << 16,
		Listeners: []trace.Listener{trace.ListenerFunc(func(ev trace.Event) {
			b := buf[:0]
			for _, v := range []uint64{ev.Seq, uint64(ev.G), uint64(ev.Op), uint64(ev.Addr), uint64(ev.Obj), uint64(ev.Kind), uint64(ev.Child)} {
				b = binary.LittleEndian.AppendUint64(b, v)
			}
			h.Write(b)
			h.Write([]byte(ev.Label))
			h.Write([]byte{0})
		})},
	})
	fmt.Fprintf(h, "steps=%d events=%d budget=%t failures=%q\n", res.Steps, res.Events, res.BudgetExceeded, res.Failures)
	for _, l := range res.Leaked {
		fmt.Fprintf(h, "leaked g%d %s on %q\n", l.G, l.Name, l.BlockedOn)
	}
}

// edgePrograms reach the modeled operations that no pattern or
// generated program does: Map.Keys, select send arms, Cond.Broadcast,
// a full buffered channel, and Close with parked senders and receivers.
var edgePrograms = []struct {
	name string
	main func(*sched.G)
}{
	{"map-keys", func(g *sched.G) {
		m := sched.NewMap[int, int](g, "m")
		for k := 5; k > 0; k-- {
			m.Put(g, k, k)
		}
		g.Go("writer", func(g *sched.G) { m.Put(g, 9, 9); m.Delete(g, 3) })
		for _, k := range m.Keys(g) {
			m.Get(g, k)
		}
		m.Range(g, func(k, v int) bool { return k != 4 })
	}},
	{"select-send", func(g *sched.G) {
		c := sched.NewChan[int](g, "c", 0)
		b := sched.NewChan[int](g, "b", 1)
		g.Go("recv", func(g *sched.G) { c.Recv(g); b.Recv(g); b.Recv(g) })
		for i := 0; i < 3; i++ {
			g.Select(sched.OnSend(c, i, func() {}), sched.OnSend(b, i, func() {}))
		}
	}},
	{"cond-broadcast", func(g *sched.G) {
		mu := sched.NewMutex(g, "mu")
		cond := sched.NewCond(g, "cond", mu)
		ready := false
		for i := 0; i < 3; i++ {
			g.Go("waiter", func(g *sched.G) {
				mu.Lock(g)
				for !ready {
					cond.Wait(g)
				}
				mu.Unlock(g)
			})
		}
		mu.Lock(g)
		ready = true
		mu.Unlock(g)
		cond.Broadcast(g)
		cond.Wait(g) // without the lock: a model failure
	}},
	{"buffered-full", func(g *sched.G) {
		c := sched.NewChan[int](g, "c", 2)
		g.Go("send", func(g *sched.G) {
			for i := 0; i < 5; i++ {
				c.Send(g, i)
			}
			c.Close(g)
		})
		for {
			if _, ok := c.Recv(g); !ok {
				break
			}
		}
	}},
	{"close-parked", func(g *sched.G) {
		u := sched.NewChan[int](g, "u", 0)
		b := sched.NewChan[int](g, "b", 1)
		b.Send(g, 1)
		g.Go("send-u", func(g *sched.G) { u.Send(g, 1) })
		g.Go("send-u2", func(g *sched.G) { u.Send(g, 2) })
		g.Go("recv-u", func(g *sched.G) { u.Recv(g); u.Recv(g) })
		g.Go("send-b", func(g *sched.G) { b.Send(g, 2) })
		g.Yield()
		u.Close(g)
		b.Close(g)
		b.Recv(g)
		g.Select(sched.OnRecv(b, func(int, bool) {}))
		g.Select(sched.OnRecv(u, func(int, bool) {}))
		g.Select(sched.OnSend(b, 3, func() {}))
		u.Send(g, 3)
	}},
}
