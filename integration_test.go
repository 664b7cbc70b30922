package gorace_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gorace/internal/stack"
	"gorace/internal/trace"
)

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
	runOK(racedetect, "WARNING: DATA RACE", "-pattern", "capture-err", "-seeds", "40")
	// Campaign flags pass raced's job-spec validation: a repeated
	// strategy fails at startup instead of doing the work twice.
	if out, err := exec.Command(racedetect, "-campaign", "-seeds", "1",
		"-strategies", "random,random").CombinedOutput(); err == nil || !strings.Contains(string(out), "duplicate strategy") {
		t.Fatalf("racedetect -campaign -strategies random,random: %v\n%s", err, out)
	}

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

	// Examples.
	runOK(build("examples/quickstart"), "clean: no race under any of 50 seeds")
	runOK(build("examples/future"), "clean: no race, no leak")
	runOK(build("examples/deployment"), "dedup hash stability")
	runOK(build("examples/flakiness"), "P(race detected in one run)")
	runOK(build("examples/nightly"), "running 20 nights")
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
