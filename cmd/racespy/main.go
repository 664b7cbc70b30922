// Command racespy runs the DataRaceSpy deployment simulation of
// §3.3–3.5 and emits the Figure 3 and Figure 4 time series plus the
// operational summary.
package main

import (
	"flag"
	"fmt"
	"os"

	"gorace/internal/monorepo"
	"gorace/internal/pipeline"
	"gorace/internal/textplot"
)

// runReal is the end-to-end mode: every simulated night, every unit
// test of a synthetic monorepo executes under a fresh schedule with
// the real FastTrack detector attached; dedup and fixing operate on
// the actual reports. Only the developer fix rate is simulated.
func runReal(days int, seed int64) {
	if days > 60 {
		days = 60 // each day runs the full test suite; keep it snappy
	}
	repo := monorepo.Generate(20, 4, 0.5, seed)
	fmt.Printf("end-to-end deployment: 20 services x 4 tests, %d racy tests, %d days\n\n",
		repo.RacyCount(), days)
	res := repo.SimulateDeployment(days, 0.25, seed)
	for _, d := range res.Days {
		if d.Day%5 == 0 || d.Day == days-1 {
			fmt.Printf("day %2d: %3d detections, %2d new defects, %2d fixed, %2d open\n",
				d.Day, d.Detections, d.NewDefects, d.Fixed, d.OpenDefects)
		}
	}
	fmt.Printf("\nfiled %d defects, fixed %d; %d tests still racy, %d never caught\n",
		res.TotalFiled, res.TotalFixed, res.StillRacy, res.NeverCaught)
}

func main() {
	var (
		days = flag.Int("days", 180, "days to simulate")
		seed = flag.Int64("seed", 1, "simulation seed")
		fig3 = flag.Bool("fig3", false, "print Figure 3 CSV (outstanding races)")
		fig4 = flag.Bool("fig4", false, "print Figure 4 CSV (found vs fixed)")
		real = flag.Bool("real", false, "run the end-to-end mode: real detector over a synthetic monorepo")
		diff = flag.Bool("difficulty", false, "apply per-category fix difficulty (subtle races land slower)")
	)
	flag.Parse()

	if *real {
		runReal(*days, *seed)
		return
	}

	if *days < 1 {
		fmt.Fprintln(os.Stderr, "racespy: -days must be at least 1")
		os.Exit(2)
	}
	cfg := pipeline.DefaultConfig()
	cfg.Days = *days
	cfg.Seed = *seed
	if *diff {
		cfg.FixDifficulty = pipeline.DefaultFixDifficulty()
	}
	o := pipeline.Run(cfg)

	switch {
	case *fig3:
		fmt.Print(pipeline.FormatFigure3(o))
	case *fig4:
		fmt.Print(pipeline.FormatFigure4(o))
	default:
		fmt.Println("DataRaceSpy deployment simulation (§3.3–3.5)")
		fmt.Println()
		fmt.Print(pipeline.FormatSummary(o.Summary))
		fmt.Println()
		outstanding := make([]float64, len(o.Days))
		created := make([]float64, len(o.Days))
		resolved := make([]float64, len(o.Days))
		for i, d := range o.Days {
			outstanding[i] = float64(d.Outstanding)
			created[i] = float64(d.CreatedCum)
			resolved[i] = float64(d.ResolvedCum)
		}
		fmt.Print(textplot.Chart("Figure 3: total outstanding detected races vs time (days)",
			[]textplot.Series{{Name: "outstanding", Points: outstanding}},
			textplot.Options{}))
		fmt.Println()
		fmt.Print(textplot.Chart("Figure 4: data race issues found vs fixed (cumulative)",
			[]textplot.Series{
				{Name: "created", Points: created},
				{Name: "resolved", Points: resolved},
			}, textplot.Options{}))
		fmt.Println("\nuse -fig3 / -fig4 for the full CSV series")
	}
}
