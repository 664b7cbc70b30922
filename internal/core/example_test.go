package core_test

import (
	"fmt"

	"gorace/internal/core"
	"gorace/internal/sched"
)

// ExampleNewRunner runs one modeled program under a registered
// detector and scheduling strategy. The program races by
// construction — two goroutines store to the same variable with no
// synchronization — so the report manifests under every schedule.
func ExampleNewRunner() {
	prog := func(g *sched.G) {
		counter := sched.NewVar[int](g, "counter")
		g.Go("worker", func(g *sched.G) {
			counter.Store(g, 1) // unsynchronized write in the child
		})
		counter.Store(g, 2) // concurrent write in the parent
	}

	runner := core.NewRunner(
		core.WithDetector("fasttrack"),
		core.WithStrategy("random"),
	)
	out, err := runner.RunSeed(prog, 1) // a fixed seed reproduces the run exactly
	if err != nil {
		panic(err)
	}
	fmt.Printf("detector: %s\n", out.Detector)
	fmt.Printf("races: %d on variable %q\n", len(out.Races), out.Races[0].Var())
	// Output:
	// detector: fasttrack-hb
	// races: 1 on variable "counter"
}
