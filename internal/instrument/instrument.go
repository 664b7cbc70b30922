// Package instrument rewrites real Go source onto the modeled
// scheduler's event vocabulary, so ordinary packages can run under the
// repo's deterministic schedules and race detectors.
//
// The rewriter is a source-to-source compiler built on go/ast and
// go/types. Given a package directory (plus an optional harness file
// defining the entry function), it emits one self-contained program
// function — `func Prog<Name>(g *sched.G)` — in which:
//
//   - reads and writes of shared variables become trace access events
//     on stable trace.Addrs (the program calls sched.G.StableIDs first,
//     so cell identities are schedule- and seed-independent);
//   - `go` statements become sched.G.Go spawns;
//   - sync.Mutex, sync.RWMutex, sync.WaitGroup, and sync.Once map onto
//     the corresponding sched primitives;
//   - channel makes/sends/receives/closes/selects map onto sched.Chan
//     and sched.G.Select;
//   - sync/atomic calls map onto sched.Atomic, with plain accesses of
//     the same variable becoming PlainLoad/PlainStore (the partial-
//     atomics bug shape);
//   - shared maps and slices map onto sched.Map and sched.Slice.
//
// Only shared state is instrumented: package-level variables,
// address-taken locals, and locals captured by function literals.
// Everything else stays plain Go, so the emitted event stream models
// the program's concurrency without drowning it in irrelevant
// accesses. An optional coalescing pass additionally drops redundant
// adjacent accesses to the same cell within a basic block.
//
// The rewriter supports a documented subset of Go (see
// docs/INSTRUMENT.md); source outside the subset is rejected with a
// positioned error rather than silently mis-modeled.
package instrument

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Options configures one instrumentation run.
type Options struct {
	// ProgName names the generated function: Prog<ProgName>. Required;
	// must be a valid identifier fragment.
	ProgName string
	// Entry is the niladic subject function the generated program
	// invokes last. Required.
	Entry string
	// Coalesce drops redundant adjacent accesses to the same cell
	// within a basic block (default off; cmd/raceinstrument enables it
	// unless told otherwise).
	Coalesce bool
	// ExtraFiles adds sources (filename → content) on top of the
	// package directory — typically a harness defining Entry.
	ExtraFiles map[string]string
	// SkipFiles names package files Dir leaves out of the subject —
	// infrastructure that shares a directory with the bug shape but is
	// not part of it (and may use constructs the rewriter rejects).
	SkipFiles []string
}

// Output is the product of one instrumentation run.
type Output struct {
	// Source is a complete generated .go file.
	Source []byte
	// FuncName is the generated program function's name.
	FuncName string
	// PkgName is the subject package's name.
	PkgName string
}

// passthrough lists imports the subject may use un-modeled: calls into
// them are emitted as-is (with instrumented arguments). "sync" and
// "sync/atomic" are allowed but modeled, never passed through.
var passthrough = map[string]bool{
	"fmt": true, "sort": true, "strings": true, "strconv": true,
	"errors": true, "math": true, "unicode": true,
}

// Dir instruments the package in dir (non-test .go files, plus
// opts.ExtraFiles) and returns the generated program.
func Dir(dir string, opts Options) (*Output, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := map[string]string{}
	skip := map[string]bool{}
	for _, name := range opts.SkipFiles {
		skip[name] = true
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || skip[name] {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		files[name] = string(src)
	}
	return Files(files, opts)
}

// Files instruments a package given as filename → source (harness
// files from opts.ExtraFiles are merged in) and returns the generated
// program.
func Files(files map[string]string, opts Options) (*Output, error) {
	if opts.ProgName == "" || opts.Entry == "" {
		return nil, fmt.Errorf("instrument: ProgName and Entry are required")
	}
	all := map[string]string{}
	for k, v := range files {
		all[k] = v
	}
	for k, v := range opts.ExtraFiles {
		all[k] = v
	}

	fset := token.NewFileSet()
	var names []string
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	var parsed []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, all[name], parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	if len(parsed) == 0 {
		return nil, fmt.Errorf("instrument: no Go files")
	}
	pkgName := parsed[0].Name.Name

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(pkgName, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("instrument: typecheck: %w", err)
	}
	for _, imp := range pkg.Imports() {
		p := imp.Path()
		if p != "sync" && p != "sync/atomic" && !passthrough[p] {
			return nil, fmt.Errorf("instrument: unsupported import %q", p)
		}
	}

	an, err := analyze(fset, parsed, pkg, info)
	if err != nil {
		return nil, err
	}
	em := &emitter{an: an, opts: opts}
	src, err := em.program()
	if err != nil {
		return nil, err
	}
	return &Output{Source: src, FuncName: "Prog" + opts.ProgName, PkgName: pkgName}, nil
}

// errAt builds a positioned subset-violation error.
func errAt(fset *token.FileSet, pos token.Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", fset.Position(pos), fmt.Sprintf(format, args...))
}
