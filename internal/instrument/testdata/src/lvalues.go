package lvalues

import (
	"sync"
	"sync/atomic"
)

type point struct {
	x, y int
}

type job struct {
	wg   *sync.WaitGroup
	n    int
	hits int64
}

func (j *job) finish() {
	j.n++
	atomic.AddInt64(&j.hits, 1)
	atomic.AddInt64(&ticks, 1)
	j.wg.Done()
}

var (
	pts    = make([]point, 4)
	counts = map[string]int{}
	total  int
	origin point
	grid   [4]int
)

func bump(p *int) {
	*p++
	(*p)++
	*p += 2
	(*p)--
}

func move(i, dx int) {
	pts[i].x++
	pts[i].y -= dx
	pts[i+1].x += dx
	pts[3].x = 7
	counts["moves"]++
	counts["dx"] -= dx
	total += counts["dx"]
	origin.x++
	grid[i] += dx
}

func guarded(mu *sync.Mutex, rw *sync.RWMutex, wg *sync.WaitGroup, once *sync.Once) {
	defer wg.Done()
	once.Do(func() { counts["init"] = 1 })
	mu.Lock()
	move(1, 2)
	mu.Unlock()
	rw.RLock()
	v := counts["moves"]
	rw.RUnlock()
	done := make(chan bool)
	go func() {
		v++
		done <- true
	}()
	<-done
	_ = v
}

func captured(n int, mu *sync.Mutex) int {
	lock := mu
	done := make(chan bool)
	go func() {
		lock.Lock()
		n++
		lock.Unlock()
		done <- true
	}()
	<-done
	return n
}

func Run() {
	var mu sync.Mutex
	var rw sync.RWMutex
	var wg sync.WaitGroup
	var once sync.Once
	wg.Add(3)
	go guarded(&mu, &rw, &wg, &once)
	go guarded(&mu, &rw, &wg, &once)
	j := &job{wg: &wg}
	go j.finish()
	j.hits++
	wg.Wait()
	bump(&total)
	_ = captured(1, &mu)
	_ = pts[1].x
}

// ticks is declared after its first use as an atomic target.
var ticks int64
