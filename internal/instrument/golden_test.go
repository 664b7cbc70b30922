package instrument

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenCases drives TestGolden: each instruments one fixture from
// testdata/src and compares against testdata/golden.
var goldenCases = []struct {
	name     string // fixture and golden basename
	src      string // source file under testdata/src
	prog     string // generated Prog name
	coalesce bool
}{
	{name: "counter", src: "counter.go", prog: "Counter"},
	{name: "mutexdemo", src: "mutexdemo.go", prog: "MutexDemo"},
	{name: "chans", src: "chans.go", prog: "Chans"},
	{name: "atomics", src: "atomics.go", prog: "Atomics"},
	{name: "coalesce_off", src: "coalesce.go", prog: "CoalesceOff"},
	{name: "coalesce_on", src: "coalesce.go", prog: "CoalesceOn", coalesce: true},
	{name: "collections", src: "collections.go", prog: "Collections"},
	{name: "structs", src: "structs.go", prog: "Structs"},
	{name: "lvalues", src: "lvalues.go", prog: "LValues"},
	{name: "callinit", src: "callinit.go", prog: "CallInit"},
}

// TestGolden pins each fixture's generated source byte-for-byte and
// type-checks it against gorace/internal/sched, so an accepted program
// that would not compile fails here rather than in internal/progs.
func TestGolden(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", "src", tc.src))
			if err != nil {
				t.Fatal(err)
			}
			out, err := Files(map[string]string{tc.src: string(src)}, Options{
				ProgName: tc.prog, Entry: "Run", Coalesce: tc.coalesce,
			})
			if err != nil {
				t.Fatalf("instrument %s: %v", tc.src, err)
			}
			if err := typeCheck(fset, imp, tc.name+".go", out.Source); err != nil {
				t.Errorf("generated source does not type-check: %v\n%s", err, out.Source)
			}
			goldenPath := filepath.Join("testdata", "golden", tc.name+".go")
			if *update {
				if err := os.WriteFile(goldenPath, out.Source, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run TestGolden -update): %v", err)
			}
			if string(want) != string(out.Source) {
				t.Errorf("generated source differs from %s;\n--- got ---\n%s\nrun with -update after verifying", goldenPath, out.Source)
			}
		})
	}
}

// typeCheck type-checks one generated file, reporting every error.
func typeCheck(fset *token.FileSet, imp types.Importer, name string, src []byte) error {
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		return err
	}
	var errs []string
	conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err.Error()) }}
	conf.Check("progs", fset, []*ast.File{f}, nil)
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "\n"))
	}
	return nil
}

// TestGoldenDeterministic pins byte-identical output across repeated
// runs (map iteration anywhere in the pipeline would break this).
func TestGoldenDeterministic(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "src", "collections.go"))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{ProgName: "Collections", Entry: "Run", Coalesce: true}
	first, err := Files(map[string]string{"collections.go": string(src)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Files(map[string]string{"collections.go": string(src)}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if string(again.Source) != string(first.Source) {
			t.Fatalf("run %d produced different bytes", i)
		}
	}
}

// TestCoalescePass checks that coalescing actually removes per-access
// traffic: the coalesced Step body must hold one Load and one Store
// per cell run, not one per statement.
func TestCoalescePass(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "src", "coalesce.go"))
	if err != nil {
		t.Fatal(err)
	}
	off, err := Files(map[string]string{"coalesce.go": string(src)}, Options{ProgName: "C", Entry: "Run"})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Files(map[string]string{"coalesce.go": string(src)}, Options{ProgName: "C", Entry: "Run", Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	if no, nc := strings.Count(string(off.Source), ".Load(g)"), strings.Count(string(on.Source), ".Load(g)"); nc >= no {
		t.Errorf("coalescing did not reduce loads: %d -> %d", no, nc)
	}
	if no, nc := strings.Count(string(off.Source), ".Store(g"), strings.Count(string(on.Source), ".Store(g"); nc >= no {
		t.Errorf("coalescing did not reduce stores: %d -> %d", no, nc)
	}
}

// TestRejectsUnsupported pins positioned subset-violation errors.
func TestRejectsUnsupported(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			name: "generic-func",
			src:  "package p\nfunc Max[T int](a, b T) T { if a > b { return a }; return b }\nfunc Run() {}\n",
			want: "generic function",
		},
		{
			name: "unsupported-import",
			src:  "package p\nimport \"os\"\nfunc Run() { _ = os.Args }\n",
			want: "unsupported import",
		},
		{
			name: "bodyless-func",
			src:  "package p\nfunc A00000()\nfunc Run() {}\n",
			want: "p.go:2:1: function A00000 has no body",
		},
		{
			name: "shared-map-from-call",
			src:  "package p\nfunc load() map[string]int { return map[string]int{} }\nfunc Run() { var m = load(); go func() { m[\"a\"] = 1 }() }\n",
			want: "p.go:3:22: shared map m: only make/literal initialization supported",
		},
		{
			name: "chan-from-non-call",
			src:  "package p\nfunc Run() { var ch chan int = nil; go func() { ch <- 1 }() }\n",
			want: "p.go:2:32: channel initializer must be a call",
		},
		{
			name: "shared-slice-from-variable",
			src:  "package p\nfunc Run() { ys := []int{1}; var xs = ys; go func() { xs[0]++ }() }\n",
			want: "p.go:2:39: unsupported shared slice initializer",
		},
		{
			name: "interface-method-call",
			src:  "package p\ntype Namer interface{ Name() string }\ntype T struct{ n string }\nfunc (t *T) Name() string { return t.n }\nfunc Run() { var x Namer = &T{}; _ = x.Name() }\n",
			want: "p.go:5:38: method Name called through interface Namer",
		},
		{
			name: "address-of-plain-field",
			src:  "package p\ntype node struct{ next int }\nfunc Run() { a := node{}; pp := &a.next; *pp = 2; _ = a }\n",
			want: "p.go:3:33: address of field next",
		},
		{
			name: "address-of-held-field",
			src:  "package p\ntype node struct{ next int }\nfunc Run() { a := node{}; pp := &a.next; *pp = 2; go func() { _ = a }() }\n",
			want: "p.go:3:33: address of field next",
		},
		{
			name: "missing-entry",
			src:  "package p\nfunc Other() {}\n",
			want: "entry function",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Files(map[string]string{"p.go": tc.src}, Options{ProgName: "P", Entry: "Run"})
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
