package patterns

import (
	"fmt"

	"gorace/internal/sched"
	"gorace/internal/taxonomy"
)

// Observation 4 (slices) and Observation 5 (maps).

func init() {
	register(Pattern{
		ID:          "slice-append-unlocked",
		Listing:     0,
		Cat:         taxonomy.CatSlice,
		Secondary:   []taxonomy.Category{taxonomy.CatMissingLock},
		Description: "Concurrent append to a shared slice without a lock",
		Racy:        sliceAppendRacy,
		Fixed:       sliceAppendFixed,
	})
	register(Pattern{
		ID:          "slice-header-copy",
		Listing:     5,
		Cat:         taxonomy.CatSlice,
		Description: "Locked appends race with an unlocked slice-header copy at a goroutine callsite",
		Racy:        sliceHeaderCopyRacy,
		Fixed:       sliceHeaderCopyFixed,
	})
	register(Pattern{
		ID:          "map-concurrent-write",
		Listing:     6,
		Cat:         taxonomy.CatMap,
		Description: "Per-uuid goroutines write disjoint keys of a shared map",
		Racy:        mapWriteRacy,
		Fixed:       mapWriteFixed,
	})
	register(Pattern{
		ID:          "map-read-write",
		Listing:     0,
		Cat:         taxonomy.CatMap,
		Description: "Unlocked map read concurrent with an insert",
		Racy:        mapReadWriteRacy,
		Fixed:       mapReadWriteFixed,
	})
}

// sliceAppendRacy: the most common shape behind Table 2's 391 slice
// races — plain concurrent appends.
func sliceAppendRacy(g *sched.G) {
	g.Call("collect", "slice.go", 1, func() {
		results := sched.NewSlice[string](g, "results", 0)
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 3; i++ {
			wg.Add(g, 1)
			i := i
			g.Go("collect.func1", func(g *sched.G) {
				g.Call("collect.func1", "slice.go", 5, func() {
					results.Append(g, fmt.Sprintf("res-%d", i))
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
		results.Len(g)
	})
}

func sliceAppendFixed(g *sched.G) {
	g.Call("collect", "slice.go", 1, func() {
		results := sched.NewSlice[string](g, "results", 0)
		mu := sched.NewMutex(g, "mutex")
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 3; i++ {
			wg.Add(g, 1)
			i := i
			g.Go("collect.func1", func(g *sched.G) {
				g.Call("collect.func1", "slice.go", 5, func() {
					mu.Lock(g)
					results.Append(g, fmt.Sprintf("res-%d", i))
					mu.Unlock(g)
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
		results.Len(g)
	})
}

// sliceHeaderCopyRacy models Listing 5: safeAppend locks around the
// append, but the goroutine invocation copies the slice header
// (`}(uuid, myResults)`) without holding the lock.
func sliceHeaderCopyRacy(g *sched.G) {
	g.Call("ProcessAll", "listing5.go", 1, func() {
		myResults := sched.NewSlice[string](g, "myResults", 0)
		mutex := sched.NewMutex(g, "mutex")
		uuids := []string{"u1", "u2", "u3"}
		for _, id := range uuids {
			g.Line(14)
			// The callsite copies the slice's meta fields unlocked.
			myResults.Header(g)
			id := id
			g.Go("ProcessAll.func2", func(g *sched.G) {
				g.Call("ProcessAll.func2", "listing5.go", 11, func() {
					g.Call("safeAppend", "listing5.go", 6, func() {
						mutex.Lock(g)
						myResults.Append(g, "res-"+id)
						mutex.Unlock(g)
					})
				})
			})
		}
	})
}

// sliceHeaderCopyFixed follows the paper's advice: pass a pointer and
// only touch the slice under the lock (no header copy at the callsite).
func sliceHeaderCopyFixed(g *sched.G) {
	g.Call("ProcessAll", "listing5.go", 1, func() {
		myResults := sched.NewSlice[string](g, "myResults", 0)
		mutex := sched.NewMutex(g, "mutex")
		wg := sched.NewWaitGroup(g, "wg")
		uuids := []string{"u1", "u2", "u3"}
		for _, id := range uuids {
			wg.Add(g, 1)
			id := id
			g.Go("ProcessAll.func2", func(g *sched.G) {
				g.Call("ProcessAll.func2", "listing5.go", 11, func() {
					g.Call("safeAppend", "listing5.go", 6, func() {
						mutex.Lock(g)
						myResults.Append(g, "res-"+id)
						mutex.Unlock(g)
					})
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
	})
}

// mapWriteRacy models Listing 6: goroutines insert *different* keys,
// which still mutates the shared sparse structure.
func mapWriteRacy(g *sched.G) {
	g.Call("processOrders", "listing6.go", 1, func() {
		errMap := sched.NewMap[string, string](g, "errMap")
		uuids := []string{"a", "b", "c"}
		for _, uuid := range uuids {
			uuid := uuid
			g.Go("processOrders.func1", func(g *sched.G) {
				g.Call("processOrders.func1", "listing6.go", 7, func() {
					errMap.Put(g, uuid, "failed") // errMap[uuid] = err
				})
			})
		}
		g.Line(12)
		g.Call("combineErrors", "listing6.go", 12, func() {
			errMap.Len(g)
		})
	})
}

func mapWriteFixed(g *sched.G) {
	g.Call("processOrders", "listing6.go", 1, func() {
		errMap := sched.NewMap[string, string](g, "errMap")
		mu := sched.NewMutex(g, "mu")
		wg := sched.NewWaitGroup(g, "wg")
		uuids := []string{"a", "b", "c"}
		for _, uuid := range uuids {
			wg.Add(g, 1)
			uuid := uuid
			g.Go("processOrders.func1", func(g *sched.G) {
				g.Call("processOrders.func1", "listing6.go", 7, func() {
					mu.Lock(g)
					errMap.Put(g, uuid, "failed")
					mu.Unlock(g)
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
		g.Line(12)
		g.Call("combineErrors", "listing6.go", 12, func() {
			mu.Lock(g)
			errMap.Len(g)
			mu.Unlock(g)
		})
	})
}

// mapReadWriteRacy: a lookup of one key races with an insert of
// another key through the shared structure.
func mapReadWriteRacy(g *sched.G) {
	g.Call("cacheLookup", "map.go", 1, func() {
		cache := sched.NewMap[string, int](g, "cache")
		cache.Put(g, "warm", 1)
		g.Go("cacheLookup.func1", func(g *sched.G) {
			g.Call("cacheLookup.func1", "map.go", 5, func() {
				cache.Put(g, "new", 2)
			})
		})
		g.Line(8)
		cache.Get(g, "warm")
	})
}

func mapReadWriteFixed(g *sched.G) {
	g.Call("cacheLookup", "map.go", 1, func() {
		cache := sched.NewMap[string, int](g, "cache")
		mu := sched.NewRWMutex(g, "mu")
		cache.Put(g, "warm", 1)
		done := sched.NewChan[int](g, "done", 1)
		g.Go("cacheLookup.func1", func(g *sched.G) {
			g.Call("cacheLookup.func1", "map.go", 5, func() {
				mu.Lock(g)
				cache.Put(g, "new", 2)
				mu.Unlock(g)
				done.Send(g, 1)
			})
		})
		g.Line(8)
		mu.RLock(g)
		cache.Get(g, "warm")
		mu.RUnlock(g)
		done.Recv(g)
	})
}
