package patterns

import (
	"gorace/internal/sched"
	"gorace/internal/taxonomy"
)

// Observation 10 and the Table 3 miscellaneous categories.

func init() {
	register(Pattern{
		ID:          "partial-locking",
		Listing:     0,
		Cat:         taxonomy.CatMissingLock,
		Description: "Lock used at one access site and forgotten at another (§4.9.2)",
		Racy:        partialLockRacy,
		Fixed:       partialLockFixed,
	})
	register(Pattern{
		ID:          "premature-unlock",
		Listing:     0,
		Cat:         taxonomy.CatMissingLock,
		Description: "Unlock called before the last access of the critical section (§4.9.2)",
		Racy:        prematureUnlockRacy,
		Fixed:       prematureUnlockFixed,
	})
	register(Pattern{
		ID:          "rlock-mutation",
		Listing:     11,
		Cat:         taxonomy.CatRLockMutation,
		Secondary:   []taxonomy.Category{taxonomy.CatMissingLock},
		Description: "Shared state mutated inside an RLock-protected section",
		Racy:        rlockMutationRacy,
		Fixed:       rlockMutationFixed,
	})
	register(Pattern{
		ID:          "api-contract",
		Listing:     0,
		Cat:         taxonomy.CatAPIContract,
		Description: "API documented as thread-safe but implemented without synchronization",
		Racy:        apiContractRacy,
		Fixed:       apiContractFixed,
	})
	register(Pattern{
		ID:          "global-mutation",
		Listing:     0,
		Cat:         taxonomy.CatGlobalVar,
		Description: "Package-level variable mutated by concurrent request handlers",
		Racy:        globalMutationRacy,
		Fixed:       globalMutationFixed,
	})
	register(Pattern{
		ID:          "partial-atomics",
		Listing:     0,
		Cat:         taxonomy.CatPartialAtomics,
		Description: "atomic used for the write but not the read of the same variable (§4.9.2)",
		Racy:        partialAtomicsRacy,
		Fixed:       partialAtomicsFixed,
	})
	register(Pattern{
		ID:          "statement-order",
		Listing:     0,
		Cat:         taxonomy.CatStatementOrder,
		Description: "Ready flag published before the data it guards is initialized",
		Racy:        statementOrderRacy,
		Fixed:       statementOrderFixed,
	})
	register(Pattern{
		ID:          "metrics-logging",
		Listing:     0,
		Cat:         taxonomy.CatMetricsLogging,
		Description: "Request counter bumped by handlers while a reporter reads it",
		Racy:        metricsRacy,
		Fixed:       metricsFixed,
	})
	register(Pattern{
		ID:          "complex-interaction",
		Listing:     0,
		Cat:         taxonomy.CatComplex,
		Secondary:   []taxonomy.Category{taxonomy.CatMissingLock},
		Description: "Callback registry mutated by one component while another component invokes callbacks",
		Racy:        complexRacy,
		Fixed:       complexFixed,
	})
}

// partialLockRacy: the writer locks, a reader forgets to.
func partialLockRacy(g *sched.G) {
	g.Call("refreshConfig", "partial.go", 1, func() {
		conf := sched.NewVar[string](g, "conf")
		mu := sched.NewMutex(g, "confMu")
		g.Go("refreshConfig.func1", func(g *sched.G) {
			g.Call("refreshConfig.func1", "partial.go", 4, func() {
				mu.Lock(g)
				conf.Store(g, "v2")
				mu.Unlock(g)
			})
		})
		g.Line(9)
		conf.Load(g) // lock forgotten here
	})
}

func partialLockFixed(g *sched.G) {
	g.Call("refreshConfig", "partial.go", 1, func() {
		conf := sched.NewVar[string](g, "conf")
		mu := sched.NewMutex(g, "confMu")
		done := sched.NewChan[int](g, "done", 1)
		g.Go("refreshConfig.func1", func(g *sched.G) {
			g.Call("refreshConfig.func1", "partial.go", 4, func() {
				mu.Lock(g)
				conf.Store(g, "v2")
				mu.Unlock(g)
				done.Send(g, 1)
			})
		})
		g.Line(9)
		mu.Lock(g)
		conf.Load(g)
		mu.Unlock(g)
		done.Recv(g)
	})
}

// prematureUnlockRacy: the critical section is cut short, leaving the
// last access outside it.
func prematureUnlockRacy(g *sched.G) {
	g.Call("drainQueue", "unlock.go", 1, func() {
		pending := sched.NewVar[int](g, "pending")
		mu := sched.NewMutex(g, "qMu")
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 2; i++ {
			wg.Add(g, 1)
			g.Go("drainQueue.func1", func(g *sched.G) {
				g.Call("drainQueue.func1", "unlock.go", 5, func() {
					mu.Lock(g)
					n := pending.Load(g)
					mu.Unlock(g) // too early
					pending.Store(g, n+1)
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
	})
}

func prematureUnlockFixed(g *sched.G) {
	g.Call("drainQueue", "unlock.go", 1, func() {
		pending := sched.NewVar[int](g, "pending")
		mu := sched.NewMutex(g, "qMu")
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 2; i++ {
			wg.Add(g, 1)
			g.Go("drainQueue.func1", func(g *sched.G) {
				g.Call("drainQueue.func1", "unlock.go", 5, func() {
					mu.Lock(g)
					n := pending.Load(g)
					pending.Store(g, n+1)
					mu.Unlock(g)
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
	})
}

// rlockMutationRacy models Listing 11: updateGate holds only the read
// lock yet flips g.ready (and performs a non-idempotent side effect).
func rlockMutationRacy(g *sched.G) {
	g.Call("healthCheck", "listing11.go", 1, func() {
		ready := sched.NewVar[bool](g, "g.ready")
		mu := sched.NewRWMutex(g, "g.mutex")
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 2; i++ {
			wg.Add(g, 1)
			g.Go("updateGate", func(g *sched.G) {
				g.Call("(*HealthGate).updateGate", "listing11.go", 2, func() {
					mu.RLock(g)
					g.Line(6)
					ready.Store(g, true) // concurrent writes under RLock
					mu.RUnlock(g)
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
	})
}

// rlockMutationFixed upgrades to the write lock around the mutation.
func rlockMutationFixed(g *sched.G) {
	g.Call("healthCheck", "listing11.go", 1, func() {
		ready := sched.NewVar[bool](g, "g.ready")
		mu := sched.NewRWMutex(g, "g.mutex")
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 2; i++ {
			wg.Add(g, 1)
			g.Go("updateGate", func(g *sched.G) {
				g.Call("(*HealthGate).updateGate", "listing11.go", 2, func() {
					mu.Lock(g)
					g.Line(6)
					ready.Store(g, true)
					mu.Unlock(g)
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
	})
}

// apiContractRacy: Cache.Incr is documented thread-safe; two handler
// goroutines trust the contract, but the implementation is bare.
func apiContractRacy(g *sched.G) {
	g.Call("handleBatch", "library.go", 1, func() {
		hits := sched.NewVar[int](g, "api.cache.hits")
		incr := func(g *sched.G) {
			g.Call("(*Cache).Incr", "library.go", 30, func() {
				hits.Update(g, func(x int) int { return x + 1 })
			})
		}
		for i := 0; i < 2; i++ {
			g.Go("handler", func(g *sched.G) {
				g.Call("handleBatch.func1", "server.go", 12, func() {
					incr(g)
				})
			})
		}
	})
}

func apiContractFixed(g *sched.G) {
	g.Call("handleBatch", "library.go", 1, func() {
		hits := sched.NewVar[int](g, "api.cache.hits")
		mu := sched.NewMutex(g, "cache.mu")
		wg := sched.NewWaitGroup(g, "wg")
		incr := func(g *sched.G) {
			g.Call("(*Cache).Incr", "library.go", 30, func() {
				mu.Lock(g)
				hits.Update(g, func(x int) int { return x + 1 })
				mu.Unlock(g)
			})
		}
		for i := 0; i < 2; i++ {
			wg.Add(g, 1)
			g.Go("handler", func(g *sched.G) {
				g.Call("handleBatch.func1", "server.go", 12, func() {
					incr(g)
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
	})
}

// globalMutationRacy: handlers mutate a package-level default.
func globalMutationRacy(g *sched.G) {
	g.Call("serve", "globals.go", 1, func() {
		defaultTimeout := sched.NewVarOf(g, "global.defaultTimeout", 30)
		for i := 0; i < 2; i++ {
			i := i
			g.Go("handler", func(g *sched.G) {
				g.Call("applyOverride", "globals.go", 9, func() {
					defaultTimeout.Store(g, 10+i)
				})
			})
		}
	})
}

func globalMutationFixed(g *sched.G) {
	g.Call("serve", "globals.go", 1, func() {
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 2; i++ {
			i := i
			wg.Add(g, 1)
			g.Go("handler", func(g *sched.G) {
				g.Call("applyOverride", "globals.go", 9, func() {
					// per-request configuration, not a global
					local := sched.NewVar[int](g, "requestTimeout")
					local.Store(g, 10+i)
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
	})
}

// partialAtomicsRacy: §4.9.2 — atomic write, plain read.
func partialAtomicsRacy(g *sched.G) {
	g.Call("pollState", "atomics.go", 1, func() {
		state := sched.NewAtomic(g, "state")
		wg := sched.NewWaitGroup(g, "wg")
		wg.Add(g, 1)
		g.Go("pollState.func1", func(g *sched.G) {
			g.Call("pollState.func1", "atomics.go", 4, func() {
				state.Store(g, 1) // atomic.StoreInt64
			})
			wg.Done(g)
		})
		g.Line(9)
		state.PlainLoad(g) // forgot atomic.LoadInt64
		wg.Wait(g)
	})
}

func partialAtomicsFixed(g *sched.G) {
	g.Call("pollState", "atomics.go", 1, func() {
		state := sched.NewAtomic(g, "state")
		wg := sched.NewWaitGroup(g, "wg")
		wg.Add(g, 1)
		g.Go("pollState.func1", func(g *sched.G) {
			g.Call("pollState.func1", "atomics.go", 4, func() {
				state.Store(g, 1)
			})
			wg.Done(g)
		})
		g.Line(9)
		state.Load(g) // atomic on both sides
		wg.Wait(g)
	})
}

// statementOrderRacy: the ready flag is set *before* the data write,
// so a reader that sees ready=1 still races on the data.
func statementOrderRacy(g *sched.G) {
	g.Call("initService", "order.go", 1, func() {
		data := sched.NewVar[string](g, "payload(init)")
		readyFlag := sched.NewAtomic(g, "ready")
		g.Go("initService.func1", func(g *sched.G) {
			g.Call("initService.func1", "order.go", 4, func() {
				readyFlag.Store(g, 1)      // wrong order: published first
				data.Store(g, "populated") // initialized second
			})
		})
		g.Line(10)
		if readyFlag.Load(g) == 1 {
			data.Load(g) // flag said ready, but the write may be in flight
		}
	})
}

func statementOrderFixed(g *sched.G) {
	g.Call("initService", "order.go", 1, func() {
		data := sched.NewVar[string](g, "payload(init)")
		readyFlag := sched.NewAtomic(g, "ready")
		g.Go("initService.func1", func(g *sched.G) {
			g.Call("initService.func1", "order.go", 4, func() {
				data.Store(g, "populated") // initialize first
				readyFlag.Store(g, 1)      // publish second
			})
		})
		g.Line(10)
		if readyFlag.Load(g) == 1 {
			data.Load(g) // release/acquire through the flag orders this
		}
	})
}

// metricsRacy: fire-and-forget stats, the §4.10 "racy metrics/logging"
// category.
func metricsRacy(g *sched.G) {
	g.Call("serveRequests", "metrics.go", 1, func() {
		requests := sched.NewVar[int](g, "metrics.requests")
		for i := 0; i < 2; i++ {
			g.Go("handler", func(g *sched.G) {
				g.Call("recordMetric", "metrics.go", 7, func() {
					requests.Update(g, func(x int) int { return x + 1 })
				})
			})
		}
		g.Line(12)
		g.Call("reportMetrics", "metrics.go", 12, func() {
			requests.Load(g)
		})
	})
}

func metricsFixed(g *sched.G) {
	g.Call("serveRequests", "metrics.go", 1, func() {
		requests := sched.NewAtomic(g, "metrics.requests")
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 2; i++ {
			wg.Add(g, 1)
			g.Go("handler", func(g *sched.G) {
				g.Call("recordMetric", "metrics.go", 7, func() {
					requests.Add(g, 1)
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
		g.Line(12)
		g.Call("reportMetrics", "metrics.go", 12, func() {
			requests.Load(g)
		})
	})
}

// complexRacy: three components — a registrar locks the registry map,
// a dispatcher iterates it WITHOUT the lock (it lives in another
// package and predates the lock), and a worker triggers dispatch.
func complexRacy(g *sched.G) {
	g.Call("startSystem", "registry.go", 1, func() {
		callbacks := sched.NewMap[string, int](g, "registry.callbacks")
		mu := sched.NewMutex(g, "registry.mu")
		g.Go("registrar", func(g *sched.G) {
			g.Call("(*Registry).Register", "registry.go", 14, func() {
				mu.Lock(g)
				callbacks.Put(g, "onCommit", 1)
				mu.Unlock(g)
			})
		})
		g.Go("dispatcher", func(g *sched.G) {
			g.Call("(*Dispatcher).Fire", "dispatch.go", 22, func() {
				g.Call("(*EventBus).fanout", "bus.go", 40, func() {
					callbacks.Len(g) // iterates without the registry lock
					callbacks.Get(g, "onCommit")
				})
			})
		})
	})
}

func complexFixed(g *sched.G) {
	g.Call("startSystem", "registry.go", 1, func() {
		callbacks := sched.NewMap[string, int](g, "registry.callbacks")
		mu := sched.NewMutex(g, "registry.mu")
		wg := sched.NewWaitGroup(g, "wg")
		wg.Add(g, 2)
		g.Go("registrar", func(g *sched.G) {
			g.Call("(*Registry).Register", "registry.go", 14, func() {
				mu.Lock(g)
				callbacks.Put(g, "onCommit", 1)
				mu.Unlock(g)
			})
			wg.Done(g)
		})
		g.Go("dispatcher", func(g *sched.G) {
			g.Call("(*Dispatcher).Fire", "dispatch.go", 22, func() {
				g.Call("(*EventBus).fanout", "bus.go", 40, func() {
					mu.Lock(g)
					callbacks.Len(g)
					callbacks.Get(g, "onCommit")
					mu.Unlock(g)
				})
			})
			wg.Done(g)
		})
		wg.Wait(g)
	})
}
