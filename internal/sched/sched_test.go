package sched

import (
	"math/rand"
	"testing"

	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// run executes main with a recorder attached and returns both.
func run(t *testing.T, opts Options, main func(*G)) (*Result, *trace.Recorder) {
	t.Helper()
	rec := &trace.Recorder{}
	opts.Listeners = append(opts.Listeners, rec)
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 1 << 16
	}
	res := Run(main, opts)
	return res, rec
}

func TestEmptyProgram(t *testing.T) {
	res, _ := run(t, Options{}, func(g *G) {})
	if res.Goroutines != 1 || res.Deadlocked() || len(res.Failures) != 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestSpawnRunsChildren(t *testing.T) {
	hit := 0
	res, rec := run(t, Options{}, func(g *G) {
		for i := 0; i < 3; i++ {
			g.Go("child", func(g *G) { hit++ })
		}
	})
	if hit != 3 {
		t.Fatalf("children ran %d times, want 3", hit)
	}
	if res.Goroutines != 4 {
		t.Fatalf("goroutines = %d, want 4", res.Goroutines)
	}
	ops := rec.CountOps()
	if ops[trace.OpFork] != 3 {
		t.Fatalf("fork events = %d, want 3", ops[trace.OpFork])
	}
	if ops[trace.OpGoEnd] != 4 {
		t.Fatalf("go-end events = %d, want 4", ops[trace.OpGoEnd])
	}
}

func TestVarLoadStore(t *testing.T) {
	var got int
	_, rec := run(t, Options{}, func(g *G) {
		v := NewVarOf(g, "x", 10)
		v.Store(g, 42)
		got = v.Load(g)
	})
	if got != 42 {
		t.Fatalf("load = %d", got)
	}
	ops := rec.CountOps()
	if ops[trace.OpWrite] != 1 || ops[trace.OpRead] != 1 {
		t.Fatalf("ops = %v", ops)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	// Under every seed, the critical sections must not interleave.
	for seed := int64(0); seed < 20; seed++ {
		inside := 0
		maxInside := 0
		res, _ := run(t, Options{Strategy: NewRandom(), Seed: seed}, func(g *G) {
			mu := NewMutex(g, "mu")
			wg := NewWaitGroup(g, "wg")
			for i := 0; i < 3; i++ {
				wg.Add(g, 1)
				g.Go("worker", func(g *G) {
					mu.Lock(g)
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					g.Yield() // widen the window
					inside--
					mu.Unlock(g)
					wg.Done(g)
				})
			}
			wg.Wait(g)
		})
		if maxInside != 1 {
			t.Fatalf("seed %d: %d goroutines inside the critical section", seed, maxInside)
		}
		if res.Deadlocked() || len(res.Failures) > 0 {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestMutexUnlockUnlockedFails(t *testing.T) {
	res, _ := run(t, Options{}, func(g *G) {
		mu := NewMutex(g, "mu")
		mu.Unlock(g)
	})
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %v", res.Failures)
	}
}

func TestMutexCloneSharesNoState(t *testing.T) {
	// Listing 7: a by-value mutex copy gives no mutual exclusion.
	order := []int{}
	res, _ := run(t, Options{}, func(g *G) {
		mu := NewMutex(g, "mu")
		done := NewChan[int](g, "done", 2)
		g.Go("a", func(g *G) {
			m := mu.Clone(g)
			m.Lock(g)
			order = append(order, 1)
			g.Yield()
			order = append(order, 2)
			m.Unlock(g)
			done.Send(g, 1)
		})
		g.Go("b", func(g *G) {
			m := mu.Clone(g)
			m.Lock(g)
			order = append(order, 3)
			m.Unlock(g)
			done.Send(g, 1)
		})
		done.Recv(g)
		done.Recv(g)
	})
	if res.Deadlocked() {
		t.Fatalf("clones must not exclude each other: %+v", res.Leaked)
	}
}

func TestRWMutexReadersShareWritersExclude(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		readers, maxReaders := 0, 0
		writerWhileReader := false
		res, _ := run(t, Options{Strategy: NewRandom(), Seed: seed}, func(g *G) {
			mu := NewRWMutex(g, "rw")
			wg := NewWaitGroup(g, "wg")
			for i := 0; i < 3; i++ {
				wg.Add(g, 1)
				g.Go("reader", func(g *G) {
					mu.RLock(g)
					readers++
					if readers > maxReaders {
						maxReaders = readers
					}
					g.Yield()
					readers--
					mu.RUnlock(g)
					wg.Done(g)
				})
			}
			wg.Add(g, 1)
			g.Go("writer", func(g *G) {
				mu.Lock(g)
				if readers > 0 {
					writerWhileReader = true
				}
				g.Yield()
				mu.Unlock(g)
				wg.Done(g)
			})
			wg.Wait(g)
		})
		if writerWhileReader {
			t.Fatalf("seed %d: writer ran with readers inside", seed)
		}
		if res.Deadlocked() || len(res.Failures) > 0 {
			t.Fatalf("seed %d: %+v", seed, res)
		}
		_ = maxReaders
	}
}

func TestUnbufferedChannelTransfersValue(t *testing.T) {
	var got int
	res, _ := run(t, Options{}, func(g *G) {
		ch := NewChan[int](g, "ch", 0)
		g.Go("sender", func(g *G) { ch.Send(g, 99) })
		got, _ = ch.Recv(g)
	})
	if got != 99 || res.Deadlocked() {
		t.Fatalf("got %d, result %+v", got, res)
	}
}

func TestUnbufferedReceiverFirst(t *testing.T) {
	// Force the receiver to park before the sender runs.
	var got int
	res, _ := run(t, Options{Strategy: NewReplay([]int{0, 0, 0, 0})}, func(g *G) {
		ch := NewChan[int](g, "ch", 0)
		g.Go("sender", func(g *G) { ch.Send(g, 7) })
		got, _ = ch.Recv(g)
	})
	if got != 7 || res.Deadlocked() {
		t.Fatalf("got %d, result %+v", got, res)
	}
}

func TestBufferedChannelFIFOAndBackpressure(t *testing.T) {
	var got []int
	res, _ := run(t, Options{Strategy: NewRandom(), Seed: 3}, func(g *G) {
		ch := NewChan[int](g, "ch", 2)
		g.Go("producer", func(g *G) {
			for i := 1; i <= 5; i++ {
				ch.Send(g, i)
			}
			ch.Close(g)
		})
		for {
			v, ok := ch.Recv(g)
			if !ok {
				break
			}
			got = append(got, v)
		}
	})
	if len(got) != 5 {
		t.Fatalf("received %v", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("FIFO broken: %v", got)
		}
	}
	if res.Deadlocked() {
		t.Fatalf("%+v", res)
	}
}

func TestRecvFromClosedEmptyChannel(t *testing.T) {
	okSeen := true
	res, _ := run(t, Options{}, func(g *G) {
		ch := NewChan[int](g, "ch", 1)
		ch.Close(g)
		_, okSeen = ch.Recv(g)
	})
	if okSeen {
		t.Fatal("recv from closed empty channel returned ok=true")
	}
	if res.Deadlocked() || len(res.Failures) != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestSendOnClosedChannelFails(t *testing.T) {
	res, _ := run(t, Options{}, func(g *G) {
		ch := NewChan[int](g, "ch", 1)
		ch.Close(g)
		ch.Send(g, 1)
	})
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %v", res.Failures)
	}
}

func TestCloseWakesParkedReceivers(t *testing.T) {
	oks := make([]bool, 2)
	res, _ := run(t, Options{Strategy: NewRandom(), Seed: 1}, func(g *G) {
		ch := NewChan[int](g, "ch", 0)
		wg := NewWaitGroup(g, "wg")
		for i := 0; i < 2; i++ {
			wg.Add(g, 1)
			i := i
			g.Go("rx", func(g *G) {
				_, oks[i] = ch.Recv(g)
				wg.Done(g)
			})
		}
		ch.Close(g)
		wg.Wait(g)
	})
	if oks[0] || oks[1] {
		t.Fatalf("oks = %v, want both false", oks)
	}
	if res.Deadlocked() {
		t.Fatalf("%+v", res)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Listing 9's forever-blocked goroutine, distilled: send with no
	// receiver ever coming.
	res, rec := run(t, Options{}, func(g *G) {
		ch := NewChan[int](g, "ch", 0)
		g.Go("leaker", func(g *G) { ch.Send(g, 1) })
	})
	if !res.Deadlocked() || len(res.Leaked) != 1 {
		t.Fatalf("leak not detected: %+v", res)
	}
	if res.Leaked[0].Name != "leaker" {
		t.Fatalf("leaked = %+v", res.Leaked)
	}
	if rec.CountOps()[trace.OpGoLeak] != 1 {
		t.Fatal("no OpGoLeak event")
	}
}

func TestStepBudget(t *testing.T) {
	res, _ := run(t, Options{MaxSteps: 50}, func(g *G) {
		v := NewVar[int](g, "x")
		for {
			v.Store(g, 1)
		}
	})
	if !res.BudgetExceeded {
		t.Fatal("budget not enforced")
	}
}

func TestWaitGroupWaitsForAll(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		n := 0
		after := -1
		res, _ := run(t, Options{Strategy: NewRandom(), Seed: seed}, func(g *G) {
			wg := NewWaitGroup(g, "wg")
			for i := 0; i < 4; i++ {
				wg.Add(g, 1)
				g.Go("w", func(g *G) {
					g.Yield()
					n++
					wg.Done(g)
				})
			}
			wg.Wait(g)
			after = n
		})
		if after != 4 {
			t.Fatalf("seed %d: Wait returned with %d/4 done", seed, after)
		}
		if res.Deadlocked() {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestWaitGroupMisplacedAddUnblocksEarly(t *testing.T) {
	// Listing 10: Add inside the goroutine. Under round-robin the
	// parent reaches Wait before any child ran Add, so Wait must not
	// block at all.
	early := false
	run(t, Options{Strategy: NewReplay(nil)}, func(g *G) {
		wg := NewWaitGroup(g, "wg")
		done := NewVar[int](g, "done")
		g.Go("w", func(g *G) {
			wg.Add(g, 1)
			done.Store(g, 1)
			wg.Done(g)
		})
		wg.Wait(g) // counter is still 0: returns immediately
		if done.Load(g) == 0 {
			early = true
		}
	})
	if !early {
		t.Fatal("replay(first-runnable) should reach Wait before the child's Add")
	}
}

func TestPanicInGoroutineRecorded(t *testing.T) {
	res, _ := run(t, Options{}, func(g *G) {
		g.Go("bad", func(g *G) { panic("boom") })
	})
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %v", res.Failures)
	}
}

func TestAtomicOps(t *testing.T) {
	var v1, v2 int64
	_, rec := run(t, Options{}, func(g *G) {
		a := NewAtomic(g, "ctr")
		a.Store(g, 5)
		a.Add(g, 2)
		v1 = a.Load(g)
		a.PlainStore(g, 9)
		v2 = a.PlainLoad(g)
	})
	if v1 != 7 || v2 != 9 {
		t.Fatalf("v1=%d v2=%d", v1, v2)
	}
	ops := rec.CountOps()
	if ops[trace.OpAtomicStore] != 1 || ops[trace.OpAtomicRMW] != 1 || ops[trace.OpAtomicLoad] != 1 {
		t.Fatalf("atomic ops = %v", ops)
	}
	if ops[trace.OpWrite] != 1 || ops[trace.OpRead] != 1 {
		t.Fatalf("plain ops = %v", ops)
	}
}

func TestMapOperations(t *testing.T) {
	var got string
	var ok1, ok2 bool
	var n int
	_, _ = run(t, Options{}, func(g *G) {
		m := NewMap[string, string](g, "m")
		m.Put(g, "a", "1")
		m.Put(g, "b", "2")
		got, ok1 = m.Get(g, "a")
		m.Delete(g, "a")
		_, ok2 = m.Get(g, "a")
		n = m.Len(g)
	})
	if got != "1" || !ok1 || ok2 || n != 1 {
		t.Fatalf("map semantics broken: %q %v %v %d", got, ok1, ok2, n)
	}
}

func TestSliceOperations(t *testing.T) {
	var ln int
	var v int
	res, _ := run(t, Options{}, func(g *G) {
		sl := NewSlice[int](g, "s", 2)
		sl.Set(g, 0, 10)
		sl.Set(g, 1, 20)
		sl.Append(g, 30)
		v = sl.Get(g, 2)
		ln = sl.Len(g)
	})
	if v != 30 || ln != 3 {
		t.Fatalf("v=%d len=%d", v, ln)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("failures = %v", res.Failures)
	}
}

func TestSliceOutOfRangeFails(t *testing.T) {
	res, _ := run(t, Options{}, func(g *G) {
		sl := NewSlice[int](g, "s", 1)
		sl.Get(g, 5)
	})
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %v", res.Failures)
	}
}

func TestOnceRunsExactlyOnce(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		runs := 0
		res, _ := run(t, Options{Strategy: NewRandom(), Seed: seed}, func(g *G) {
			once := NewOnce(g, "init")
			wg := NewWaitGroup(g, "wg")
			for i := 0; i < 3; i++ {
				wg.Add(g, 1)
				g.Go("w", func(g *G) {
					once.Do(g, func() { runs++ })
					wg.Done(g)
				})
			}
			wg.Wait(g)
		})
		if runs != 1 {
			t.Fatalf("seed %d: once ran %d times", seed, runs)
		}
		if res.Deadlocked() {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestSelectPrefersReadyArm(t *testing.T) {
	var picked int
	res, _ := run(t, Options{}, func(g *G) {
		a := NewChan[int](g, "a", 1)
		b := NewChan[int](g, "b", 1)
		b.Send(g, 5)
		picked = g.Select(
			OnRecv(a, nil),
			OnRecv(b, nil),
		)
	})
	if picked != 1 {
		t.Fatalf("picked arm %d, want 1", picked)
	}
	if res.Deadlocked() {
		t.Fatalf("%+v", res)
	}
}

func TestSelectDefault(t *testing.T) {
	var picked int
	run(t, Options{}, func(g *G) {
		a := NewChan[int](g, "a", 0)
		picked = g.Select(
			OnRecv(a, nil),
			Default(nil),
		)
	})
	if picked != 1 {
		t.Fatalf("picked arm %d, want default (1)", picked)
	}
}

func TestSelectBlocksUntilReady(t *testing.T) {
	var got int
	res, _ := run(t, Options{Strategy: NewRandom(), Seed: 7}, func(g *G) {
		ch := NewChan[int](g, "ch", 0)
		g.Go("tx", func(g *G) {
			g.Yield()
			ch.Send(g, 11)
		})
		g.Select(OnRecv(ch, func(v int, ok bool) { got = v }))
	})
	if got != 11 || res.Deadlocked() {
		t.Fatalf("got=%d %+v", got, res)
	}
}

func TestSelectSendArm(t *testing.T) {
	var received int
	res, _ := run(t, Options{Strategy: NewRandom(), Seed: 5}, func(g *G) {
		ch := NewChan[int](g, "ch", 1)
		done := NewChan[int](g, "done", 0)
		g.Go("rx", func(g *G) {
			v, _ := ch.Recv(g)
			received = v
			done.Send(g, 1)
		})
		g.Select(OnSend(ch, 42, nil))
		done.Recv(g)
	})
	if received != 42 || res.Deadlocked() {
		t.Fatalf("received=%d %+v", received, res)
	}
}

func TestSelectEmptyBlocksForever(t *testing.T) {
	res, _ := run(t, Options{}, func(g *G) {
		g.Go("stuck", func(g *G) { g.Select() })
	})
	if !res.Deadlocked() {
		t.Fatal("select{} should leak the goroutine")
	}
}

func TestDeterminismSameSeedSameTrace(t *testing.T) {
	prog := func(g *G) {
		v := NewVar[int](g, "x")
		mu := NewMutex(g, "mu")
		wg := NewWaitGroup(g, "wg")
		for i := 0; i < 3; i++ {
			wg.Add(g, 1)
			g.Go("w", func(g *G) {
				mu.Lock(g)
				v.Store(g, v.Load(g)+1)
				mu.Unlock(g)
				wg.Done(g)
			})
		}
		wg.Wait(g)
	}
	sig := func(seed int64) []string {
		rec := &trace.Recorder{}
		Run(prog, Options{Strategy: NewRandom(), Seed: seed, Listeners: []trace.Listener{rec}, MaxSteps: 1 << 16})
		var out []string
		for _, ev := range rec.Events {
			out = append(out, ev.String())
		}
		return out
	}
	a, b := sig(42), sig(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d:\n%s\n%s", i, a[i], b[i])
		}
	}
	c := sig(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("note: seeds 42 and 43 produced identical traces (possible but unusual)")
	}
}

func TestStacksAppearInEvents(t *testing.T) {
	_, rec := run(t, Options{}, func(g *G) {
		g.Call("main", "main.go", 1, func() {
			v := NewVar[int](g, "x")
			g.Line(3)
			v.Store(g, 1)
		})
	})
	for _, ev := range rec.Events {
		if ev.Op == trace.OpWrite {
			if ev.Stack.Leaf().Func != "main" || ev.Stack.Leaf().Line != 3 {
				t.Fatalf("stack = %v", ev.Stack.Frames())
			}
			return
		}
	}
	t.Fatal("no write event found")
}

func TestForkEventCarriesChildTID(t *testing.T) {
	_, rec := run(t, Options{}, func(g *G) {
		g.Go("c1", func(g *G) {})
	})
	for _, ev := range rec.Events {
		if ev.Op == trace.OpFork {
			if ev.Child != vclock.TID(1) {
				t.Fatalf("fork child = %d", ev.Child)
			}
			return
		}
	}
	t.Fatal("no fork event")
}

func TestUpdateIsTwoAccesses(t *testing.T) {
	_, rec := run(t, Options{}, func(g *G) {
		v := NewVarOf(g, "x", 1)
		v.Update(g, func(x int) int { return x * 2 })
	})
	ops := rec.CountOps()
	if ops[trace.OpRead] != 1 || ops[trace.OpWrite] != 1 {
		t.Fatalf("ops = %v", ops)
	}
}

func TestStrategiesCompleteACommonProgram(t *testing.T) {
	strategies := []Strategy{
		NewRoundRobin(),
		NewRandom(),
		NewPCT(3, 500),
		NewDelay(0.2, 4),
		NewReplay([]int{1, 0, 1, 0, 1}),
		NewRecording(NewRandom()),
	}
	for _, st := range strategies {
		st := st
		t.Run(st.Name(), func(t *testing.T) {
			total := 0
			res, _ := run(t, Options{Strategy: st, Seed: 11}, func(g *G) {
				ch := NewChan[int](g, "ch", 2)
				wg := NewWaitGroup(g, "wg")
				for i := 1; i <= 4; i++ {
					wg.Add(g, 1)
					i := i
					g.Go("p", func(g *G) {
						ch.Send(g, i)
						wg.Done(g)
					})
				}
				for i := 0; i < 4; i++ {
					v, _ := ch.Recv(g)
					total += v
				}
				wg.Wait(g)
			})
			if total != 10 {
				t.Fatalf("total = %d", total)
			}
			if res.Deadlocked() || res.BudgetExceeded {
				t.Fatalf("%+v", res)
			}
		})
	}
}

func TestRecordingStrategyCapturesDecisions(t *testing.T) {
	recStrat := NewRecording(NewRandom())
	_, _ = run(t, Options{Strategy: recStrat, Seed: 2}, func(g *G) {
		v := NewVar[int](g, "x")
		g.Go("w", func(g *G) { v.Store(g, 1) })
		v.Store(g, 2)
	})
	if len(recStrat.Picks) == 0 {
		t.Fatal("no decisions recorded")
	}
	for _, p := range recStrat.Picks {
		if p.Chosen >= p.Options {
			t.Fatalf("invalid record %+v", p)
		}
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Run(func(g *G) {
			v := NewVar[int](g, "x")
			mu := NewMutex(g, "mu")
			wg := NewWaitGroup(g, "wg")
			for j := 0; j < 4; j++ {
				wg.Add(g, 1)
				g.Go("w", func(g *G) {
					for k := 0; k < 25; k++ {
						mu.Lock(g)
						v.Store(g, v.Load(g)+1)
						mu.Unlock(g)
					}
					wg.Done(g)
				})
			}
			wg.Wait(g)
		}, Options{Seed: int64(i), MaxSteps: 1 << 16})
	}
}

func TestMapRange(t *testing.T) {
	var visited []string
	_, rec := run(t, Options{}, func(g *G) {
		m := NewMap[string, int](g, "m")
		m.Put(g, "b", 2)
		m.Put(g, "a", 1)
		m.Range(g, func(k string, v int) bool {
			visited = append(visited, k)
			return true
		})
	})
	if len(visited) != 2 {
		t.Fatalf("visited = %v", visited)
	}
	// Deterministic order: insertion-assigned cells, so "b" first.
	if visited[0] != "b" || visited[1] != "a" {
		t.Fatalf("order = %v", visited)
	}
	ops := rec.CountOps()
	// 2 puts x2 writes; range: 1 internal + 2 key reads; puts also 2x2.
	if ops[trace.OpRead] != 3 {
		t.Fatalf("range reads = %d, want 3", ops[trace.OpRead])
	}
}

func TestMapRangeEarlyStop(t *testing.T) {
	count := 0
	run(t, Options{}, func(g *G) {
		m := NewMap[int, int](g, "m")
		m.Put(g, 1, 1)
		m.Put(g, 2, 2)
		m.Put(g, 3, 3)
		m.Range(g, func(int, int) bool {
			count++
			return count < 2
		})
	})
	if count != 2 {
		t.Fatalf("early stop failed: %d", count)
	}
}

func TestSliceRange(t *testing.T) {
	var got []int
	run(t, Options{}, func(g *G) {
		sl := NewSlice[int](g, "s", 0)
		sl.Append(g, 10)
		sl.Append(g, 20)
		sl.Range(g, func(i, v int) bool {
			got = append(got, v)
			return true
		})
	})
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("range = %v", got)
	}
}

// TestSeededRandMatchesFreshSource: a recycled run RNG, re-seeded,
// draws exactly what a fresh source with that seed would, so pooling
// RNGs cannot change a schedule.
func TestSeededRandMatchesFreshSource(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		used := seededRand(seed + 100)
		buf := make([]byte, 3) // leave Read's partial-word state behind
		used.Read(buf)
		for i := 0; i < 700; i++ {
			used.Int63()
		}
		rngPool.Put(used)

		got, want := seededRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("seed %d draw %d: pooled %d, fresh %d", seed, i, g, w)
			}
		}
		gb, wb := make([]byte, 5), make([]byte, 5)
		got.Read(gb)
		want.Read(wb)
		if string(gb) != string(wb) {
			t.Fatalf("seed %d: pooled Read %x, fresh %x", seed, gb, wb)
		}
		rngPool.Put(got)
	}
}
