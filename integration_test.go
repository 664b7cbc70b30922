package gorace_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gorace/internal/stack"
	"gorace/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the racedb export goldens")

// TestBinariesBuildAndRun compiles every command and example and
// executes each with fast arguments, asserting on headline output.
// This is the repo's end-to-end smoke: public API, corpus, detectors,
// simulations, and the CLIs all have to cooperate.
func TestBinariesBuildAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("binary integration skipped in -short mode")
	}
	bin := t.TempDir()

	build := func(pkg string) string {
		t.Helper()
		name := filepath.Join(bin, filepath.Base(pkg))
		cmd := exec.Command("go", "build", "-o", name, "./"+pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
		return name
	}

	runOK := func(name string, wantSubstr string, args ...string) string {
		t.Helper()
		out, err := exec.Command(name, args...).CombinedOutput()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 ||
				!strings.Contains(filepath.Base(name), "staticrace") {
				t.Fatalf("run %s %v: %v\n%s", name, args, err, out)
			}
		}
		if wantSubstr != "" && !strings.Contains(string(out), wantSubstr) {
			t.Fatalf("%s %v output missing %q:\n%s", name, args, wantSubstr, out)
		}
		return string(out)
	}

	// Commands.
	racedetect := build("cmd/racedetect")
	runOK(racedetect, "capture-loop-index", "-list")
	runOK(racedetect, "prog:stack-trace", "-list")
	runOK(racedetect, "== prog:stack-trace/racy", "-pattern", "prog:stack-trace", "-seeds", "10")
	runOK(racedetect, "WARNING: DATA RACE", "-pattern", "capture-err", "-seeds", "40")
	// Campaign flags pass raced's job-spec validation: a repeated
	// strategy fails at startup instead of doing the work twice.
	if out, err := exec.Command(racedetect, "-campaign", "-seeds", "1",
		"-strategies", "random,random").CombinedOutput(); err == nil || !strings.Contains(string(out), "duplicate strategy") {
		t.Fatalf("racedetect -campaign -strategies random,random: %v\n%s", err, out)
	}

	// The general-mode invocation README.md and docs/INSTRUMENT.md show.
	raceinstrument := build("cmd/raceinstrument")
	runOK(raceinstrument, "func ProgTaxonomyAudit(g *sched.G)", "-dir", "internal/taxonomy",
		"-harness", "internal/instrument/testdata/harness/taxonomy_harness.go",
		"-entry", "RacyAudit", "-name", "TaxonomyAudit")

	gocount := build("cmd/gocount")
	runOK(gocount, "Table 1", "-go-lines", "50000", "-java-lines", "20000")

	fleetscan := build("cmd/fleetscan")
	runOK(fleetscan, "p50", "-seed", "7")

	racespy := build("cmd/racespy")
	runOK(racespy, "Figure 3", "-days", "60")
	runOK(racespy, "day,outstanding", "-days", "30", "-fig3")
	runOK(racespy, "end-to-end deployment", "-real", "-days", "4")

	racetable := build("cmd/racetable")
	runOK(racetable, "Concurrent slice access", "-scale", "0.05")

	staticraceBin := build("cmd/staticrace")
	racy := filepath.Join(bin, "racy.go")
	if err := os.WriteFile(racy, []byte("package d\nfunc f(js []int){for _,j:=range js{go func(){_=j}()}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runOK(staticraceBin, "loop-capture", racy)

	// Post-facto analysis: a saved trace re-detected by -stream.
	traceFile := filepath.Join(bin, "m.trace")
	out, err := exec.Command(racedetect, "-pattern", "map-concurrent-write",
		"-save-trace", traceFile, "-seeds", "40").CombinedOutput()
	if err != nil {
		t.Fatalf("save-trace: %v\n%s", err, out)
	}
	runOK(racedetect, "dedup hash:", "-stream", traceFile)
	handoff := filepath.Join(bin, "handoff.trace")
	writeHandoffTrace(t, handoff)
	runOK(racedetect, "LOCKSET CANDIDATE", "-stream", handoff, "-detector", "hybrid")

	// The corpus CLI over a two-run campaign store. Both runs sweep the
	// same seeds, so every defect recurs.
	racedb := build("cmd/racedb")
	db := filepath.Join(bin, "corpus.db")
	for _, run := range []string{"r1", "r2"} {
		runOK(racedetect, "corpus: appended run "+run, "-campaign", "-seeds", "2", "-parallel", "1",
			"-corpus", db, "-run-id", run, "-corpus-traces", filepath.Join(bin, "corpus-traces"))
	}
	stats := runOK(racedb, "runs:    2 (r1 .. r2)", "-db", db, "stats")
	var defects int
	if i := strings.Index(stats, "defects: "); i < 0 {
		t.Fatalf("racedb stats has no defects line:\n%s", stats)
	} else if _, err := fmt.Sscanf(stats[i:], "defects: %d deduplicated", &defects); err != nil || defects < 3 {
		t.Fatalf("racedb stats defects line: %v (%d defects)\n%s", err, defects, stats)
	}
	lines := func(out string) []string { return strings.Split(strings.TrimSuffix(out, "\n"), "\n") }
	top := lines(runOK(racedb, "race-id", "-db", db, "top", "-n", "3"))
	if len(top) != 4 {
		t.Fatalf("racedb top -n 3 printed %d lines, want header + 3:\n%s", len(top), strings.Join(top, "\n"))
	}
	if all := lines(runOK(racedb, "race-id", "-db", db, "top", "-n", "-1")); len(all) != defects+1 {
		t.Fatalf("racedb top -n -1 printed %d lines, want header + %d", len(all), defects)
	}
	runOK(racedb, fmt.Sprintf("r1 -> r2: 0 new, 0 resolved, %d recurring", defects), "-db", db, "diff", "r1", "r2")
	if got := len(lines(runOK(racedb, "", "-db", db, "export", "-format", "jsonl"))); got != defects {
		t.Fatalf("racedb export -format jsonl printed %d lines, want %d", got, defects)
	}
	var exported []map[string]any
	if err := json.Unmarshal([]byte(runOK(racedb, "", "-db", db, "export", "-format", "json")), &exported); err != nil || len(exported) != defects {
		t.Fatalf("racedb export -format json: %v (%d records, want %d)", err, len(exported), defects)
	}
	var stderr bytes.Buffer
	bad := exec.Command(racedb, "-db", db, "export", "-format", "xml")
	bad.Stderr = &stderr
	if err := bad.Run(); err == nil || !strings.Contains(stderr.String(), "json ") || !strings.Contains(stderr.String(), "jsonl") {
		t.Fatalf("racedb export -format xml: %v, stderr %q (want a non-zero exit naming json and jsonl)", err, stderr.String())
	}
	runOK(racedb, "reproduced from its stored trace", "-db", db, "replay", strings.Fields(top[1])[0])
	runOK(racedb, fmt.Sprintf("(%d defects, 2 runs)", defects), "-db", db, "compact")

	// Examples.
	runOK(build("examples/quickstart"), "clean: no race under any of 50 seeds")
	runOK(build("examples/future"), "clean: no race, no leak")
	runOK(build("examples/deployment"), "dedup hash stability")
	runOK(build("examples/flakiness"), "P(race detected in one run)")
	runOK(build("examples/nightly"), "running 20 nights")
}

// TestRacedbExportGolden pins the bytes of `racedb export` in both
// formats over a copy of internal/corpus's golden store: two runs, one
// record with a trace, labels and locks, and one with no trace,
// category or labels and an empty stack. Regenerate with
// `go test -run RacedbExportGolden . -update` after a deliberate
// wire-format change.
func TestRacedbExportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("binary integration skipped in -short mode")
	}
	dir := t.TempDir()
	data, err := os.ReadFile(filepath.Join("internal", "corpus", "testdata", "golden.grcs"))
	if err != nil {
		t.Fatal(err)
	}
	db := filepath.Join(dir, "golden.grcs")
	if err := os.WriteFile(db, data, 0o644); err != nil {
		t.Fatal(err)
	}
	racedb := filepath.Join(dir, "racedb")
	if out, err := exec.Command("go", "build", "-o", racedb, "./cmd/racedb").CombinedOutput(); err != nil {
		t.Fatalf("build cmd/racedb: %v\n%s", err, out)
	}
	for _, format := range []string{"json", "jsonl"} {
		got, err := exec.Command(racedb, "-db", db, "export", "-format", format).Output()
		if err != nil {
			t.Fatalf("racedb export -format %s: %v", format, err)
		}
		path := filepath.Join("testdata", "racedb-export."+format)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("racedb export -format %s drifted from %s:\n got %s\nwant %s", format, path, got, want)
		}
	}
}

// writeHandoffTrace writes a hand-made trace in the shape of
// TestHybridCandidates: main forks a child, writes x and sends on a
// channel; the child receives, then writes x. The channel orders the
// writes, so happens-before reports nothing, but no lock guards x, so
// the lockset half of the hybrid detector flags a candidate.
func writeHandoffTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	at := func(fn string, line int) stack.Context {
		return stack.NewContext(stack.Frame{Func: fn, File: "handoff.go", Line: line})
	}
	const x, ch = trace.Addr(1), trace.ObjID(1)
	enc := trace.NewEncoder(f)
	for i, ev := range []trace.Event{
		{G: 0, GName: "main", Op: trace.OpFork, Child: 1, Stack: at("main", 3)},
		{G: 0, GName: "main", Op: trace.OpWrite, Addr: x, Stack: at("main", 4), Label: "x = 1"},
		{G: 0, GName: "main", Op: trace.OpRelease, Obj: ch, Kind: trace.KindChan, Stack: at("main", 5)},
		{G: 1, GName: "child", Op: trace.OpAcquire, Obj: ch, Kind: trace.KindChan, Stack: at("main.func1", 8)},
		{G: 1, GName: "child", Op: trace.OpWrite, Addr: x, Stack: at("main.func1", 9), Label: "x = 2"},
		{G: 1, GName: "child", Op: trace.OpGoEnd},
		{G: 0, GName: "main", Op: trace.OpGoEnd},
	} {
		ev.Seq = uint64(i)
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
}
