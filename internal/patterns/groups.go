package patterns

import (
	"fmt"

	"gorace/internal/sched"
	"gorace/internal/taxonomy"
)

// Observation 8 (WaitGroup misuse) and Observation 9 (parallel tests).

func init() {
	register(Pattern{
		ID:          "waitgroup-add-inside",
		Listing:     10,
		Cat:         taxonomy.CatGroupSync,
		Secondary:   []taxonomy.Category{taxonomy.CatSlice},
		Description: "wg.Add placed inside the goroutine body: Wait can unblock early",
		Racy:        wgAddInsideRacy,
		Fixed:       wgAddInsideFixed,
	})
	register(Pattern{
		ID:          "waitgroup-early-done",
		Listing:     0,
		Cat:         taxonomy.CatGroupSync,
		Description: "wg.Done called before the goroutine's final write",
		Racy:        wgEarlyDoneRacy,
		Fixed:       wgEarlyDoneFixed,
	})
	register(Pattern{
		ID:          "parallel-table-test",
		Listing:     0,
		Cat:         taxonomy.CatParallelTest,
		Secondary:   []taxonomy.Category{taxonomy.CatMap},
		Description: "Table-driven subtests run in parallel while sharing a fixture map (Observation 9)",
		Racy:        parallelTestRacy,
		Fixed:       parallelTestFixed,
	})
	register(Pattern{
		ID:          "parallel-test-product-api",
		Listing:     0,
		Cat:         taxonomy.CatParallelTest,
		Secondary:   []taxonomy.Category{taxonomy.CatAPIContract},
		Description: "Parallel subtests exercise a product API written without thread safety",
		Racy:        parallelTestAPIRacy,
		Fixed:       parallelTestAPIFixed,
	})
}

// wgAddInsideRacy models Listing 10: Add runs inside the goroutines,
// so Wait can see a zero counter and the parent reads `results` while
// workers still write it.
func wgAddInsideRacy(g *sched.G) {
	g.Call("WaitGrpExample", "listing10.go", 1, func() {
		itemIDs := []int{0, 1, 2}
		results := sched.NewSlice[int](g, "results", len(itemIDs))
		wg := sched.NewWaitGroup(g, "wg")
		for i := range itemIDs {
			idx := i
			g.Go("WaitGrpExample.func1", func(g *sched.G) {
				g.Call("WaitGrpExample.func1", "listing10.go", 6, func() {
					wg.Add(g, 1) // incorrect placement (line 7)
					g.Line(8)
					results.Set(g, idx, idx*10)
					wg.Done(g)
				})
			})
		}
		g.Line(12)
		wg.Wait(g) // waits only for participants added so far
		g.Line(13)
		for i := range itemIDs {
			results.Get(g, i)
		}
	})
}

// wgAddInsideFixed hoists Add before each goroutine launch.
func wgAddInsideFixed(g *sched.G) {
	g.Call("WaitGrpExample", "listing10.go", 1, func() {
		itemIDs := []int{0, 1, 2}
		results := sched.NewSlice[int](g, "results", len(itemIDs))
		wg := sched.NewWaitGroup(g, "wg")
		for i := range itemIDs {
			idx := i
			wg.Add(g, 1) // correct placement (line 5)
			g.Go("WaitGrpExample.func1", func(g *sched.G) {
				g.Call("WaitGrpExample.func1", "listing10.go", 6, func() {
					g.Line(8)
					results.Set(g, idx, idx*10)
					wg.Done(g)
				})
			})
		}
		g.Line(12)
		wg.Wait(g)
		g.Line(13)
		for i := range itemIDs {
			results.Get(g, i)
		}
	})
}

// wgEarlyDoneRacy: Done is signaled before the goroutine's final write
// — "a premature placement of the Done() call" (§4.7).
func wgEarlyDoneRacy(g *sched.G) {
	g.Call("flushAll", "wgdone.go", 1, func() {
		status := sched.NewVar[string](g, "status")
		wg := sched.NewWaitGroup(g, "wg")
		wg.Add(g, 1)
		g.Go("flushAll.func1", func(g *sched.G) {
			g.Call("flushAll.func1", "wgdone.go", 4, func() {
				wg.Done(g) // too early
				status.Store(g, "flushed")
			})
		})
		wg.Wait(g)
		status.Load(g)
	})
}

func wgEarlyDoneFixed(g *sched.G) {
	g.Call("flushAll", "wgdone.go", 1, func() {
		status := sched.NewVar[string](g, "status")
		wg := sched.NewWaitGroup(g, "wg")
		wg.Add(g, 1)
		g.Go("flushAll.func1", func(g *sched.G) {
			g.Call("flushAll.func1", "wgdone.go", 4, func() {
				status.Store(g, "flushed")
				wg.Done(g) // after the last write
			})
		})
		wg.Wait(g)
		status.Load(g)
	})
}

// parallelTestRacy models the table-driven idiom with t.Parallel():
// subtests share the suite's fixture map.
func parallelTestRacy(g *sched.G) {
	g.Call("TestOrderProcessing", "suite_test.go", 1, func() {
		fixtures := sched.NewMap[string, string](g, "suite.fixtures")
		fixtures.Put(g, "base", "cfg")
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("case-%d", i)
			g.Go("TestOrderProcessing/"+name, func(g *sched.G) {
				g.Call("TestOrderProcessing.func1", "suite_test.go", 9, func() {
					// t.Parallel(): the subtest body runs concurrently
					fixtures.Put(g, name, "per-case override")
					fixtures.Get(g, "base")
				})
			})
		}
	})
}

// parallelTestFixed gives each subtest its own fixture copy.
func parallelTestFixed(g *sched.G) {
	g.Call("TestOrderProcessing", "suite_test.go", 1, func() {
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("case-%d", i)
			wg.Add(g, 1)
			g.Go("TestOrderProcessing/"+name, func(g *sched.G) {
				g.Call("TestOrderProcessing.func1", "suite_test.go", 9, func() {
					local := sched.NewMap[string, string](g, "fixtures(local)")
					local.Put(g, "base", "cfg")
					local.Put(g, name, "per-case override")
					local.Get(g, "base")
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
	})
}

// parallelTestAPIRacy: the product API keeps unsynchronized internal
// state ("perhaps thread safety was not needed" when written); the
// parallel suite violates that assumption.
func parallelTestAPIRacy(g *sched.G) {
	g.Call("TestClientReuse", "client_test.go", 1, func() {
		lastRequest := sched.NewVar[string](g, "client.lastRequest")
		clientCall := func(g *sched.G, req string) {
			g.Call("(*Client).Call", "client.go", 20, func() {
				lastRequest.Store(g, req) // product code, not test code
			})
		}
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("sub-%d", i)
			req := name
			g.Go("TestClientReuse/"+name, func(g *sched.G) {
				g.Call("TestClientReuse.func1", "client_test.go", 8, func() {
					clientCall(g, req)
				})
			})
		}
	})
}

// parallelTestAPIFixed constructs a client per subtest.
func parallelTestAPIFixed(g *sched.G) {
	g.Call("TestClientReuse", "client_test.go", 1, func() {
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("sub-%d", i)
			req := name
			wg.Add(g, 1)
			g.Go("TestClientReuse/"+name, func(g *sched.G) {
				g.Call("TestClientReuse.func1", "client_test.go", 8, func() {
					private := sched.NewVar[string](g, "client.lastRequest(private)")
					g.Call("(*Client).Call", "client.go", 20, func() {
						private.Store(g, req)
					})
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
	})
}
