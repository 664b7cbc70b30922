// Command raceanalyze performs post-facto analysis (§3.3): it loads an
// event trace previously saved by `racedetect -save-trace` and replays
// it into a fresh detector, proving that detection verdicts do not
// depend on being attached to the live execution.
//
// The trace must be in the versioned binary codec racedetect writes;
// any other file fails with trace.ErrNotTrace and exit status 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gorace/internal/detector"
	"gorace/internal/report"
	"gorace/internal/trace"
)

func main() {
	var (
		in       = flag.String("trace", "", "binary trace file to analyze")
		det      = flag.String("detector", detector.DefaultName, "one of: "+strings.Join(detector.Names(), ", "))
		jsonOut  = flag.Bool("json", false, "emit reports as JSON Lines")
		suppFile = flag.String("suppressions", "", "TSan-style suppression file; matching reports are dropped")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "usage: raceanalyze -trace file [-detector d] [-suppressions file] [-json]")
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer f.Close()
	rec, err := trace.Load(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	d, err := detector.New(*det)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rec.Replay(d)
	races, name := d.Races(), d.Name()
	report.SortRaces(races)
	races = report.UniqueByHash(races)

	suppressed := 0
	if *suppFile != "" {
		text, err := os.ReadFile(*suppFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sl, err := report.ParseSuppressions(string(text))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		races, suppressed = sl.Apply(races)
	}

	if *jsonOut {
		if err := report.WriteJSON(os.Stdout, races); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	fmt.Printf("analyzed %d events with %s: %d unique race(s)", len(rec.Events), name, len(races))
	if suppressed > 0 {
		fmt.Printf(" (%d suppressed)", suppressed)
	}
	fmt.Printf("\n\n")
	for _, r := range races {
		fmt.Println(r)
		fmt.Printf("dedup hash: %s\n\n", r.Hash())
	}
	for _, c := range report.UniqueByHash(d.Candidates()) {
		fmt.Printf("LOCKSET CANDIDATE (may not manifest):\n%s\n", c)
	}
}
