// Future: the paper's Listing 9 — a Future built from a channel plus
// shared response/err fields. When the caller's context is cancelled,
// Wait writes f.err while the future's goroutine also writes it (a
// data race), and the goroutine then blocks forever on the unbuffered
// channel send (a goroutine leak). This example detects both defects
// and then runs the repaired version.
package main

import (
	"fmt"
	"log"

	"gorace/internal/core"
	"gorace/internal/patterns"
	"gorace/internal/report"
	"gorace/internal/sweep"
)

func main() {
	p, ok := patterns.ByID("future-ctx-cancel")
	if !ok {
		log.Fatal("corpus pattern missing")
	}
	fmt.Println(p.Description)
	fmt.Println()

	runner := core.NewRunner(core.WithDetector("hybrid"))
	var raceSeen, leakSeen bool
	for seed := int64(0); seed < 200 && !(raceSeen && leakSeen); seed++ {
		out, err := runner.RunSeed(p.Racy, seed)
		if err != nil {
			log.Fatal(err)
		}
		if len(out.Races) > 0 && !raceSeen {
			raceSeen = true
			fmt.Printf("-- race manifested at seed %d --\n", seed)
			fmt.Println(report.UniqueByHash(out.Races)[0])
		}
		if out.Result.Deadlocked() && !leakSeen {
			leakSeen = true
			l := out.Result.Leaked[0]
			fmt.Printf("-- goroutine leak at seed %d --\n", seed)
			fmt.Printf("g%d (%s) blocked forever on %q (Listing 9 line 6: \"may block forever!\")\n\n",
				l.G, l.Name, l.BlockedOn)
		}
	}
	if !raceSeen || !leakSeen {
		log.Fatal("failed to manifest both defects")
	}

	fmt.Println("-- fixed variant (buffered channel; Wait does not touch f.err) --")
	aggs, _, err := sweep.New().Run([]sweep.Unit{{
		ID: p.ID + "/fixed", Program: p.Fixed, Detector: "hybrid", Runs: 100,
	}}, func() sweep.Aggregator { return sweep.NewProb() })
	if err != nil {
		log.Fatal(err)
	}
	if s := aggs[0].(*sweep.Prob).Stats()[0]; s.Detected > 0 || s.LeakedRuns > 0 {
		log.Fatalf("fixed variant misbehaved: %d racy and %d leaking runs of %d", s.Detected, s.LeakedRuns, s.Runs)
	}
	fmt.Println("clean: no race, no leak, across 100 seeds")
}
