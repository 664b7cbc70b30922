package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// golden.bin pins the on-disk trace format, binary codec version 1.
// Save must keep writing it and Load must keep reading it byte for
// byte: a codec change that breaks either is a compatibility break,
// not a refactor.
func TestGoldenTracesLoad(t *testing.T) {
	want := sampleTrace()
	var buf bytes.Buffer
	if err := want.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden.bin")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden ./internal/trace -update` after a deliberate format change)", err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("Save drifted from golden.bin (%d vs %d bytes)", buf.Len(), len(data))
	}
	got, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvents(t, got.Events, want.Events)
}
