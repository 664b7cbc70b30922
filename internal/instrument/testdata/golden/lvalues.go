// Code generated by raceinstrument; DO NOT EDIT.
// Subject package: lvalues; entry: Run.

package progs

import (
	"gorace/internal/sched"
)

// ProgLValues runs the instrumented "lvalues" package under the modeled
// scheduler, entering at Run.
func ProgLValues(g *sched.G) {
	g.StableIDs()
	type point struct {
		x, y int
	}
	type job struct {
		wg   *sched.WaitGroup
		n    *sched.Var[int]
		hits *sched.Atomic
	}
	var pts *sched.Slice[point]
	var counts *sched.Map[string, int]
	var total *sched.Var[int]
	var origin *sched.Var[point]
	var grid *sched.Var[[4]int]
	var ticks *sched.Atomic
	var bump func(g *sched.G, _ *sched.Var[int])
	var move func(g *sched.G, _ int, _ int)
	var guarded func(g *sched.G, _ *sched.Mutex, _ *sched.RWMutex, _ *sched.WaitGroup, _ *sched.Once)
	var captured func(g *sched.G, _ int, _ *sched.Mutex) int
	var Run func(g *sched.G)
	var job_finish func(g *sched.G, _ *job)
	_ = pts
	_ = counts
	_ = total
	_ = origin
	_ = grid
	_ = ticks
	_ = bump
	_ = move
	_ = guarded
	_ = captured
	_ = Run
	_ = job_finish
	job_finish = func(g *sched.G, j *job) {
		g.Push("lvalues.job_finish", "lvalues.go", 18)
		defer g.Pop()
		j.n.Store(g, j.n.Load(g)+1)
		j.hits.Add(g, 1)
		ticks.Add(g, 1)
		j.wg.Done(g)
	}
	bump = func(g *sched.G, p *sched.Var[int]) {
		g.Push("lvalues.bump", "lvalues.go", 33)
		defer g.Pop()
		p.Store(g, p.Load(g)+1)
		p.Store(g, p.Load(g)+1)
		p.Store(g, p.Load(g)+(2))
		p.Store(g, p.Load(g)-1)
	}
	move = func(g *sched.G, i int, dx int) {
		g.Push("lvalues.move", "lvalues.go", 40)
		defer g.Pop()
		_i0 := i
		_e1 := pts.Get(g, _i0)
		_e1.x++
		pts.Set(g, _i0, _e1)
		_i2 := i
		_e3 := pts.Get(g, _i2)
		_e3.y -= dx
		pts.Set(g, _i2, _e3)
		_i4 := i + 1
		_e5 := pts.Get(g, _i4)
		_e5.x += dx
		pts.Set(g, _i4, _e5)
		_i6 := 3
		_e7 := pts.Get(g, _i6)
		_e7.x = 7
		pts.Set(g, _i6, _e7)
		_k8 := "moves"
		_v9, _ := counts.Get(g, _k8)
		counts.Put(g, _k8, _v9+1)
		_k10 := "dx"
		_v11, _ := counts.Get(g, _k10)
		counts.Put(g, _k10, _v11-(dx))
		_v12, _ := counts.Get(g, "dx")
		total.Store(g, total.Load(g)+(_v12))
		_e13 := origin.Load(g)
		_e13.x++
		origin.Store(g, _e13)
		_e14 := grid.Load(g)
		_e14[i] += dx
		grid.Store(g, _e14)
	}
	guarded = func(g *sched.G, mu *sched.Mutex, rw *sched.RWMutex, wg *sched.WaitGroup, once *sched.Once) {
		g.Push("lvalues.guarded", "lvalues.go", 52)
		defer g.Pop()
		defer wg.Done(g)
		once.Do(g, func() {
			counts.Put(g, "init", 1)
		})
		mu.Lock(g)
		move(g, 1, 2)
		mu.Unlock(g)
		rw.RLock(g)
		_r15, _ := counts.Get(g, "moves")
		v := sched.NewVarOf[int](g, "v", _r15)
		rw.RUnlock(g)
		done := sched.NewChan[bool](g, "done", 0)
		g.Go("guarded.func1", func(g *sched.G) {
			g.Push("lvalues.guarded.func1", "lvalues.go", 62)
			defer g.Pop()
			v.Store(g, v.Load(g)+1)
			done.Send(g, true)
		})
		done.Recv(g)
		_ = v.Load(g)
	}
	captured = func(g *sched.G, _n int, mu *sched.Mutex) int {
		g.Push("lvalues.captured", "lvalues.go", 70)
		defer g.Pop()
		n := sched.NewVarOf[int](g, "n", _n)
		lock := mu
		done := sched.NewChan[bool](g, "done", 0)
		g.Go("captured.func1", func(g *sched.G) {
			g.Push("lvalues.captured.func1", "lvalues.go", 73)
			defer g.Pop()
			lock.Lock(g)
			n.Store(g, n.Load(g)+1)
			lock.Unlock(g)
			done.Send(g, true)
		})
		done.Recv(g)
		return n.Load(g)
	}
	Run = func(g *sched.G) {
		g.Push("lvalues.Run", "lvalues.go", 83)
		defer g.Pop()
		mu := sched.NewMutex(g, "mu")
		rw := sched.NewRWMutex(g, "rw")
		wg := sched.NewWaitGroup(g, "wg")
		once := sched.NewOnce(g, "once")
		wg.Add(g, 3)
		_a16 := mu
		_a17 := rw
		_a18 := wg
		_a19 := once
		g.Go("guarded", func(g *sched.G) {
			guarded(g, _a16, _a17, _a18, _a19)
		})
		_a20 := mu
		_a21 := rw
		_a22 := wg
		_a23 := once
		g.Go("guarded", func(g *sched.G) {
			guarded(g, _a20, _a21, _a22, _a23)
		})
		j := &job{wg: wg, n: sched.NewVar[int](g, "job.n"), hits: sched.NewAtomic(g, "job.hits")}
		g.Go("finish", func(g *sched.G) {
			job_finish(g, j)
		})
		j.hits.PlainStore(g, j.hits.PlainLoad(g)+1)
		wg.Wait(g)
		bump(g, total)
		_ = captured(g, 1, mu)
		_ = pts.Get(g, 1).x
	}
	pts = sched.NewSlice[point](g, "pts", 4)
	counts = sched.NewMap[string, int](g, "counts")
	total = sched.NewVar[int](g, "total")
	origin = sched.NewVar[point](g, "origin")
	grid = sched.NewVar[[4]int](g, "grid")
	ticks = sched.NewAtomic(g, "ticks")
	Run(g)
}
