// Quickstart: model a small concurrent program, detect its data race,
// apply the fix, and verify the fix is clean.
//
// This is the library's minimal end-to-end flow: write the program
// against the modeled runtime (internal/sched), run it under a seeded
// scheduling strategy with a detector attached (internal/core), read
// Go-race-detector-style reports (internal/report), and sweep many
// seeds as one campaign (internal/sweep).
package main

import (
	"fmt"
	"log"

	"gorace/internal/core"
	"gorace/internal/report"
	"gorace/internal/sched"
	"gorace/internal/sweep"
)

// racyCounter is the classic bug: two goroutines increment a shared
// counter without synchronization.
func racyCounter(g *sched.G) {
	g.Call("main", "counter.go", 1, func() {
		counter := sched.NewVar[int](g, "counter")
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 2; i++ {
			wg.Add(g, 1)
			g.Go("inc", func(g *sched.G) {
				g.Call("main.func1", "counter.go", 5, func() {
					counter.Update(g, func(x int) int { return x + 1 })
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
	})
}

// fixedCounter guards the increment with a mutex.
func fixedCounter(g *sched.G) {
	g.Call("main", "counter.go", 1, func() {
		counter := sched.NewVar[int](g, "counter")
		mu := sched.NewMutex(g, "mu")
		wg := sched.NewWaitGroup(g, "wg")
		for i := 0; i < 2; i++ {
			wg.Add(g, 1)
			g.Go("inc", func(g *sched.G) {
				g.Call("main.func1", "counter.go", 5, func() {
					mu.Lock(g)
					counter.Update(g, func(x int) int { return x + 1 })
					mu.Unlock(g)
				})
				wg.Done(g)
			})
		}
		wg.Wait(g)
	})
}

func main() {
	// One Runner executes a single seeded run; detectors and strategies
	// come from the registries (core.WithDetector / core.WithStrategy
	// select by name).
	runner := core.NewRunner()

	fmt.Println("== detecting the racy counter ==")
	for seed := int64(0); ; seed++ {
		out, err := runner.RunSeed(racyCounter, seed)
		if err != nil {
			log.Fatal(err)
		}
		if len(out.Races) == 0 {
			continue // this schedule hid the race; try another seed
		}
		fmt.Printf("manifested at seed %d after trying %d schedule(s)\n\n", seed, seed+1)
		for _, r := range report.UniqueByHash(out.Races) {
			fmt.Println(r)
			fmt.Println("dedup hash:", r.Hash())
		}
		break
	}

	// Many runs are a campaign: the sweep engine shards each unit's seed
	// range across parallel workers and streams every run into
	// aggregators — Prob for detection probability, FirstRace for the
	// earliest racy seed.
	fmt.Println("\n== verifying the mutex fix across 50 schedules (in parallel) ==")
	aggs, _, err := sweep.New().Run([]sweep.Unit{
		{ID: "fixed", Program: fixedCounter, Runs: 50},
		{ID: "racy", Program: racyCounter, Runs: 50},
	}, func() sweep.Aggregator { return sweep.NewProb() },
		func() sweep.Aggregator { return sweep.NewFirstRace() })
	if err != nil {
		log.Fatal(err)
	}
	if out, ok := aggs[1].(*sweep.FirstRace).Outcome(0); ok {
		log.Fatalf("fix is wrong! race at seed %d:\n%s", out.Seed, out.Races[0])
	}
	fmt.Println("clean: no race under any of 50 seeds")

	racy := aggs[0].(*sweep.Prob).Stats()[1]
	fmt.Printf("\nracy-counter detection probability over 50 schedules: %.2f\n", racy.Probability())
	fmt.Println("(the §3.2.1 flakiness that makes PR-time detection a misfit)")
}
