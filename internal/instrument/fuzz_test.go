package instrument

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// FuzzInstrument feeds arbitrary Go source to Files, the rewriter
// behind `raceinstrument -dir`, which takes its input from outside the
// process. It must never panic: input outside the supported subset
// fails with an error, and any input Files accepts must produce a file
// go/parser accepts. The seeds are the golden fixtures in testdata/src,
// with and without coalescing.
func FuzzInstrument(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "src", "*.go"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed fixtures: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), false)
		f.Add(string(src), true)
	}
	f.Fuzz(func(t *testing.T, src string, coalesce bool) {
		out, err := Files(map[string]string{"p.go": src}, Options{ProgName: "P", Entry: "Run", Coalesce: coalesce})
		if err != nil {
			return
		}
		if _, err := parser.ParseFile(token.NewFileSet(), "p_gen.go", out.Source, 0); err != nil {
			t.Fatalf("accepted input produced unparseable output: %v\n--- input ---\n%s\n--- output ---\n%s", err, src, out.Source)
		}
	})
}
