package corpus

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gorace/internal/report"
	"gorace/internal/stack"
	"gorace/internal/taxonomy"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite golden corpus files")

// goldenStack builds an 8-frame call chain ending at leaf.
func goldenStack(leaf string, line int) stack.Context {
	frames := make([]stack.Frame, 8)
	for i := range frames[:7] {
		frames[i] = stack.Frame{Func: fmt.Sprintf("svc.layer%d", i), File: fmt.Sprintf("layer%d.go", i%3), Line: 10*i + 3}
	}
	frames[7] = stack.Frame{Func: leaf, File: "leaf.go", Line: line}
	return stack.NewContext(frames...)
}

// goldenExport is the fixed sample that golden.grcs and golden.grcd
// pin: run markers plus records with locks, labels, atomic accesses,
// an empty stack and 8-frame stacks, in the order both files hold them.
func goldenExport() Export {
	access := func(g int, op trace.Op, addr uint64, seq uint64, leaf string, line int, locks ...string) report.Access {
		return report.Access{
			G: vclock.TID(g), GName: fmt.Sprintf("worker-%d", g), Op: op, Addr: trace.Addr(addr), Seq: seq,
			Stack: goldenStack(leaf, line), Label: "shared.counter", Locks: locks,
		}
	}
	atomic := access(3, trace.OpAtomicStore, 1<<40, 1<<33, "svc.flag", 0)
	atomic.Atomic = true
	bare := access(4, trace.OpRead, 0, 0, "", 0)
	bare.Stack = stack.NewContext()
	bare.GName, bare.Label = "", ""
	return Export{
		Runs: []RunInfo{
			{ID: "2026-07-01", Label: "nightly", Executions: 2100, Reports: 37},
			{ID: "2026-07-02", Label: "ci-1234 ✓", Executions: 0, Reports: 0},
		},
		Records: []Record{
			{
				Key: "svc-001/TestFoo/1a2b3c", Unit: "svc-001/TestFoo",
				RunIDs: []string{"2026-07-01", "2026-07-02"}, Count: 5,
				Category: taxonomy.CatMissingLock,
				Labels:   []taxonomy.Category{taxonomy.CatMissingLock, taxonomy.CatGlobalVar},
				Detector: "fasttrack", TracePath: "traces/svc-001_TestFoo_1a2b3c.trace",
				Race: report.Race{
					First:    access(1, trace.OpWrite, 42, 7, "svc.inc", 12, "mu", "rw(r)"),
					Second:   access(2, trace.OpRead, 42, 9, "svc.get", 18),
					Detector: "fasttrack", Seq: 9,
				},
			},
			{
				Key: "svc-002/TestBar/4d5e6f", Unit: "svc-002/TestBar",
				RunIDs: []string{"2026-07-02"}, Count: 1 << 20,
				Detector: "epoch",
				Race: report.Race{
					First:    atomic,
					Second:   bare,
					Detector: "epoch", Seq: 1 << 33,
				},
			},
		},
	}
}

// goldenStore writes the sample through the store's append path and
// returns the file's bytes.
func goldenStore(t testing.TB, x Export) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden.grcs")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range x.Runs {
		if err := s.AppendRun(info); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(x.Records...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readGolden returns a golden file, rewriting it first under -update.
func readGolden(t testing.TB, name string, want []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden ./internal/corpus -update` after a deliberate format change)", err)
	}
	return data
}

// openBytes writes data to a fresh file and opens it as a store.
func openBytes(t testing.TB, data []byte) (*Store, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.grcs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open(path)
}

// TestGoldenStore pins the GRCS store format: appending the sample
// writes golden.grcs byte for byte, and opening golden.grcs folds back
// to the sample. A change that breaks either is a format break, not a
// refactor.
func TestGoldenStore(t *testing.T) {
	want := goldenExport()
	data := readGolden(t, "golden.grcs", goldenStore(t, want))
	if got := goldenStore(t, want); !bytes.Equal(got, data) {
		t.Fatalf("store encoding drifted from golden.grcs (%d vs %d bytes)", len(got), len(data))
	}
	s, err := openBytes(t, data)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Runs(); !reflect.DeepEqual(got, want.Runs) {
		t.Fatalf("runs:\n got %+v\nwant %+v", got, want.Runs)
	}
	if got := s.Records(); !reflect.DeepEqual(got, want.Records) {
		t.Fatalf("records:\n got %+v\nwant %+v", got, want.Records)
	}
}

// TestGoldenDelta pins the GRCD delta format the same way.
func TestGoldenDelta(t *testing.T) {
	want := goldenExport()
	var buf bytes.Buffer
	if err := WriteDelta(&buf, want); err != nil {
		t.Fatal(err)
	}
	data := readGolden(t, "golden.grcd", buf.Bytes())
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("delta encoding drifted from golden.grcd (%d vs %d bytes)", buf.Len(), len(data))
	}
	got, err := ReadDelta(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta:\n got %+v\nwant %+v", got, want)
	}
}
