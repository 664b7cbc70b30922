// Command doccheck enforces the repo's documentation bar: every
// package and every exported identifier under the given directory
// trees must carry a doc comment. scripts/doccheck.sh runs it over
// internal/ and cmd/; CI runs that script as a blocking step.
//
// An exported identifier (top-level function, method, type, const,
// var) counts as documented if it has its own doc comment, inherits
// one from its enclosing const/var/type block, or carries a trailing
// line comment (the idiomatic form inside grouped const blocks).
// Methods are checked only on exported receiver types; struct fields
// follow the surrounding struct's doc and are not checked. Test files
// are skipped.
//
// With -clidoc, doccheck additionally cross-checks the CLI reference
// against the commands that actually exist: every directory under
// -cmds must have a "## <name>" section and a command-table row in
// the given markdown file, and every "## <name>" section must name a
// real command — so docs/CLI.md cannot silently go stale when a
// command is added or removed. Flags are covered too: every flag a
// command registers (package-level flag.String/Bool/... calls) must
// appear backticked (`-name`) inside that command's section, so a new
// flag cannot ship undocumented; and every backticked flag in the first
// cell of a table row in that section must be one the command
// registers, so a deleted flag's row cannot linger. Subcommand
// flag.NewFlagSet flags are out of scope — they are documented
// per-subcommand.
//
// With -flagdocs (comma-separated globs of markdown files),
// doccheck fails every inline code span in those files that is
// exactly one flag — `-name`, `-name value` or `-name=value` — unless
// some command under -cmds registers that flag, on its own command
// line or on a flag.NewFlagSet subcommand set, or the go tool does (a
// short explicit list: `-race`, `-benchtime`, ...). A span `-name-*`
// stands for every registered flag beginning "name-". Spans are parsed
// whole, so "`Seq`-ordered" names no flag; fenced code blocks are
// skipped. A flag deleted from a command cannot linger in prose.
//
// With -detdoc, doccheck cross-checks the detector design reference
// the same way: every detector name in -detsrc (the string keys of its
// constructors table) and every exported field of the detector Stats
// struct must appear backticked in the given markdown
// file — so docs/DETECTORS.md cannot silently go stale when a
// detector or counter is added.
//
// With -pkgdoc (a doc.md:srcdir pair, repeatable), doccheck
// cross-checks a package reference against the package itself: every
// exported top-level identifier (function, type, const, var) of the
// source directory must appear backticked in the markdown file — so a
// new export cannot ship without its reference doc catching up.
// scripts/doccheck.sh pins docs/STREAMING.md to internal/stream this
// way.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// violation is one undocumented package or identifier.
type violation struct {
	pos  token.Position
	what string
}

func main() {
	cliDoc := flag.String("clidoc", "", "markdown CLI reference to cross-check against -cmds (e.g. docs/CLI.md)")
	cmds := flag.String("cmds", "cmd", "command tree the -clidoc and -flagdocs references must match")
	flagDocs := flag.String("flagdocs", "", "comma-separated globs of markdown files whose flag code spans must name registered flags (e.g. 'docs/*.md,README.md')")
	detDoc := flag.String("detdoc", "", "markdown detector reference to cross-check against -detsrc (e.g. docs/DETECTORS.md)")
	detSrc := flag.String("detsrc", "internal/detector", "detector package the -detdoc reference must cover")
	var pkgDocs pkgDocList
	flag.Var(&pkgDocs, "pkgdoc", "doc.md:srcdir pair: every exported identifier of srcdir must appear backticked in doc.md (repeatable)")
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"internal", "cmd"}
	}
	fset := token.NewFileSet()
	var violations []violation
	if *cliDoc != "" {
		v, err := checkCLIDoc(*cliDoc, *cmds)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		violations = append(violations, v...)
	}
	if *flagDocs != "" {
		v, err := checkFlagSpans(strings.Split(*flagDocs, ","), *cmds)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		violations = append(violations, v...)
	}
	if *detDoc != "" {
		v, err := checkDetectorDoc(*detDoc, *detSrc)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		violations = append(violations, v...)
	}
	for _, pd := range pkgDocs {
		v, err := checkPackageDoc(pd.doc, pd.src)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		violations = append(violations, v...)
	}
	for _, root := range roots {
		dirs, err := goDirs(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, dir := range dirs {
			v, err := checkDir(fset, dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			violations = append(violations, v...)
		}
	}
	sort.Slice(violations, func(i, j int) bool {
		a, b := violations[i].pos, violations[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, v := range violations {
		fmt.Printf("%s: %s\n", v.pos, v.what)
	}
	if len(violations) > 0 {
		fmt.Printf("doccheck: %d problem(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("doccheck: all packages and exported identifiers documented")
}

// goDirs lists directories under root containing non-test .go files.
func goDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// testdata trees hold fixtures (instrumentation subjects, golden
		// output), not API surface — the Go toolchain ignores them too.
		if d.IsDir() && d.Name() == "testdata" {
			return fs.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// checkDir parses one package directory and reports undocumented
// packages and exported identifiers.
func checkDir(fset *token.FileSet, dir string) ([]violation, error) {
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("doccheck: %s: %w", dir, err)
	}
	var out []violation
	for _, pkg := range pkgs {
		files := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			files = append(files, name)
		}
		sort.Strings(files)
		hasPkgDoc := false
		for _, name := range files {
			if pkg.Files[name].Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			out = append(out, violation{
				pos:  fset.Position(pkg.Files[files[0]].Package),
				what: fmt.Sprintf("package %s has no package doc comment", pkg.Name),
			})
		}
		exportedTypes := exportedTypeNames(pkg)
		for _, name := range files {
			out = append(out, checkFile(fset, pkg.Files[name], exportedTypes)...)
		}
	}
	return out, nil
}

// exportedTypeNames collects the package's exported type names, the
// receivers whose methods must be documented.
func exportedTypeNames(pkg *ast.Package) map[string]bool {
	out := map[string]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if ts.Name.IsExported() {
					out[ts.Name.Name] = true
				}
			}
		}
	}
	return out
}

func checkFile(fset *token.FileSet, f *ast.File, exportedTypes map[string]bool) []violation {
	var out []violation
	add := func(pos token.Pos, format string, args ...any) {
		out = append(out, violation{pos: fset.Position(pos), what: fmt.Sprintf(format, args...)})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil {
				recv := receiverTypeName(d.Recv)
				if !exportedTypes[recv] {
					continue
				}
				add(d.Name.Pos(), "exported method %s.%s is undocumented", recv, d.Name.Name)
				continue
			}
			add(d.Name.Pos(), "exported function %s is undocumented", d.Name.Name)
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Name.IsExported() && d.Doc == nil && ts.Doc == nil && ts.Comment == nil {
						add(ts.Name.Pos(), "exported type %s is undocumented", ts.Name.Name)
					}
				}
			case token.CONST, token.VAR:
				kind := "const"
				if d.Tok == token.VAR {
					kind = "var"
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					for _, name := range vs.Names {
						if name.IsExported() && d.Doc == nil && vs.Doc == nil && vs.Comment == nil {
							add(name.Pos(), "exported %s %s is undocumented", kind, name.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// checkCLIDoc cross-checks the CLI reference against the command
// tree: every command directory needs a "## <name>" section and a
// table row linking to it, every "## <name>" heading must name a
// command that still exists, every flag a command registers must
// appear backticked in that command's section, and every flag a table
// row's first cell names must be registered.
func checkCLIDoc(docPath, cmdRoot string) ([]violation, error) {
	entries, err := os.ReadDir(cmdRoot)
	if err != nil {
		return nil, fmt.Errorf("doccheck: %s: %w", cmdRoot, err)
	}
	commands := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		// Only directories holding non-test Go files are commands.
		files, err := filepath.Glob(filepath.Join(cmdRoot, e.Name(), "*.go"))
		if err != nil || len(files) == 0 {
			continue
		}
		commands[e.Name()] = true
	}

	data, err := os.ReadFile(docPath)
	if err != nil {
		return nil, fmt.Errorf("doccheck: %s: %w", docPath, err)
	}
	sections := map[string]*strings.Builder{}
	sectionLine := map[string]int{}
	flagRows := map[string][]flagRow{}
	tableRows := map[string]bool{}
	section := ""
	var current *strings.Builder
	var out []violation
	for i, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "## "); ok {
			name = strings.TrimSpace(name)
			current = &strings.Builder{}
			section = name
			sections[name] = current
			sectionLine[name] = i + 1
			if !commands[name] {
				out = append(out, violation{
					pos:  token.Position{Filename: docPath, Line: i + 1},
					what: fmt.Sprintf("section %q documents a command missing from %s/", name, cmdRoot),
				})
			}
			continue
		}
		if current != nil {
			current.WriteString(line)
			current.WriteByte('\n')
			if cells := strings.Split(line, "|"); len(cells) > 2 && strings.TrimSpace(cells[0]) == "" {
				flagRows[section] = append(flagRows[section], flagRow{line: i + 1, flags: backtickedFlags(cells[1])})
			}
		}
		// Command-table rows look like "| [name](#name) | ... |".
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "| ["); ok {
			if name, _, ok := strings.Cut(rest, "]"); ok {
				tableRows[name] = true
			}
		}
	}
	names := make([]string, 0, len(commands))
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		body, hasSection := sections[name]
		if !hasSection {
			out = append(out, violation{
				pos:  token.Position{Filename: docPath, Line: 1},
				what: fmt.Sprintf("command %s/%s has no \"## %s\" section", cmdRoot, name, name),
			})
		}
		if !tableRows[name] {
			out = append(out, violation{
				pos:  token.Position{Filename: docPath, Line: 1},
				what: fmt.Sprintf("command %s/%s is missing from the command table", cmdRoot, name),
			})
		}
		if !hasSection {
			continue
		}
		flags, err := commandFlags(filepath.Join(cmdRoot, name), false)
		if err != nil {
			return nil, err
		}
		registered := map[string]bool{}
		for _, fl := range flags {
			registered[fl] = true
			if !flagDocumented(body.String(), fl) {
				out = append(out, violation{
					pos:  token.Position{Filename: docPath, Line: sectionLine[name]},
					what: fmt.Sprintf("flag -%s of %s/%s is not mentioned (`-%s`) in its section", fl, cmdRoot, name, fl),
				})
			}
		}
		for _, row := range flagRows[name] {
			for _, fl := range row.flags {
				if !registered[fl] {
					out = append(out, violation{
						pos:  token.Position{Filename: docPath, Line: row.line},
						what: fmt.Sprintf("table row names -%s, which %s/%s does not register", fl, cmdRoot, name),
					})
				}
			}
		}
	}
	return out, nil
}

// flagRow is a table row of a command's section: its line and the
// flags its first cell names.
type flagRow struct {
	line  int
	flags []string
}

// backtickedFlags returns the names of the flags a table cell names
// backticked: each "`-name" run of flag-name characters.
func backtickedFlags(cell string) []string {
	var names []string
	for rest := cell; ; {
		_, after, ok := strings.Cut(rest, "`-")
		if !ok {
			return names
		}
		n := 0
		for n < len(after) && isFlagNameChar(after[n]) {
			n++
		}
		if n > 0 {
			names = append(names, after[:n])
		}
		rest = after[n:]
	}
}

// flagRegistrars are the package-level flag constructors whose first
// argument names a command-line flag.
var flagRegistrars = map[string]bool{
	"Bool": true, "Duration": true, "Float64": true,
	"Int": true, "Int64": true, "String": true,
	"Uint": true, "Uint64": true,
}

// commandFlags returns the flag names a command registers: the string
// literals passed to package-level flag.String/Bool/Int/... calls,
// and with subcommands also those passed to the same methods of a
// variable assigned from flag.NewFlagSet. The CLI table check leaves
// subcommand flags out: they are documented per-subcommand, not in
// the command's flag table.
func commandFlags(dir string, subcommands bool) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, fmt.Errorf("doccheck: %s: %w", dir, err)
	}
	seen := map[string]bool{}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			sets := map[string]bool{"flag": true}
			ast.Inspect(f, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && subcommands && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
					if call, ok := as.Rhs[0].(*ast.CallExpr); ok && isFlagCall(call, "NewFlagSet") {
						if id, ok := as.Lhs[0].(*ast.Ident); ok {
							sets[id.Name] = true
						}
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) < 1 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !flagRegistrars[sel.Sel.Name] {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); !ok || !sets[id.Name] {
					return true
				}
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name := strings.Trim(lit.Value, `"`)
					if !seen[name] {
						seen[name] = true
						names = append(names, name)
					}
				}
				return true
			})
		}
	}
	sort.Strings(names)
	return names, nil
}

// isFlagCall reports whether call is flag.<name>(...).
func isFlagCall(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "flag"
}

// goToolFlags are flags of the go tool that the docs name in prose
// (`go test -race`, `-benchtime`); no command registers them.
var goToolFlags = map[string]bool{
	"bench": true, "benchtime": true, "count": true, "race": true, "run": true,
}

// flagSpan matches an inline code span that is exactly one flag,
// optionally with a value: its name, and "*" for a `-name-*` family.
var flagSpan = regexp.MustCompile(`^-([A-Za-z][-A-Za-z0-9]*)(\*?)(?:[ =]\S+)?$`)

// checkFlagSpans fails every inline code span of the markdown files
// matching globs that is exactly one flag no command under cmdRoot
// registers (see the package comment).
func checkFlagSpans(globs []string, cmdRoot string) ([]violation, error) {
	entries, err := os.ReadDir(cmdRoot)
	if err != nil {
		return nil, fmt.Errorf("doccheck: %s: %w", cmdRoot, err)
	}
	registered := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		flags, err := commandFlags(filepath.Join(cmdRoot, e.Name()), true)
		if err != nil {
			return nil, err
		}
		for _, fl := range flags {
			registered[fl] = true
		}
	}
	known := func(name string, family bool) bool {
		if !family {
			return registered[name] || goToolFlags[name]
		}
		for fl := range registered {
			if strings.HasPrefix(fl, name) {
				return true
			}
		}
		return false
	}
	var docs []string
	for _, g := range globs {
		m, err := filepath.Glob(strings.TrimSpace(g))
		if err != nil || len(m) == 0 {
			return nil, fmt.Errorf("doccheck: -flagdocs %q matches no file", g)
		}
		docs = append(docs, m...)
	}
	var out []violation
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			return nil, fmt.Errorf("doccheck: %s: %w", doc, err)
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, span := range codeSpans(line) {
				m := flagSpan.FindStringSubmatch(span)
				if m == nil || known(m[1], m[2] == "*") {
					continue
				}
				out = append(out, violation{
					pos:  token.Position{Filename: doc, Line: i + 1},
					what: fmt.Sprintf("`%s` names a flag no command under %s/ registers", span, cmdRoot),
				})
			}
		}
	}
	return out, nil
}

// codeSpans returns the inline code spans of one markdown line: the
// text between a run of backticks and the next run of the same
// length, trimmed. An unmatched run opens no span.
func codeSpans(line string) []string {
	var spans []string
	for i := 0; i < len(line); {
		if line[i] != '`' {
			i++
			continue
		}
		n := backtickRun(line, i)
		closed := false
		for j := i + n; j < len(line); {
			if line[j] != '`' {
				j++
				continue
			}
			m := backtickRun(line, j)
			if m == n {
				spans = append(spans, strings.TrimSpace(line[i+n:j]))
				i, closed = j+m, true
				break
			}
			j += m
		}
		if !closed {
			i += n
		}
	}
	return spans
}

// backtickRun returns the length of the run of backticks at line[i:].
func backtickRun(line string, i int) int {
	n := 0
	for i+n < len(line) && line[i+n] == '`' {
		n++
	}
	return n
}

// flagDocumented reports whether the section text mentions the flag
// backticked: a "`-name" occurrence whose next character cannot extend
// the flag name (so documenting -shard does not satisfy -shard-runs).
func flagDocumented(section, name string) bool {
	marker := "`-" + name
	for i := 0; ; {
		j := strings.Index(section[i:], marker)
		if j < 0 {
			return false
		}
		end := i + j + len(marker)
		if end >= len(section) || !isFlagNameChar(section[end]) {
			return true
		}
		i = end
	}
}

// isFlagNameChar reports whether c could continue a flag name.
func isFlagNameChar(c byte) bool {
	return c == '-' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// checkDetectorDoc cross-checks the detector design reference against
// the detector package: every detector name (each string key of the
// constructors table) and every exported field of the Stats struct
// must appear backticked in the doc, so neither a new detector nor a
// new counter can ship undocumented. Finding no names or no fields is
// an error: the table or struct has moved, not become empty.
func checkDetectorDoc(docPath, srcDir string) ([]violation, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, srcDir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, fmt.Errorf("doccheck: %s: %w", srcDir, err)
	}
	var wanted []string // identifiers the doc must mention, with their origin
	var origins []string
	var names, fields int
	addWant := func(name, origin string) {
		wanted = append(wanted, name)
		origins = append(origins, origin)
	}
	for _, pkg := range pkgs {
		files := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			files = append(files, name)
		}
		sort.Strings(files)
		for _, fname := range files {
			ast.Inspect(pkg.Files[fname], func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.ValueSpec:
					if len(d.Names) != 1 || d.Names[0].Name != "constructors" || len(d.Values) != 1 {
						return true
					}
					table, ok := d.Values[0].(*ast.CompositeLit)
					if !ok {
						return true
					}
					for _, elt := range table.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if lit, ok := kv.Key.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							addWant(strings.Trim(lit.Value, `"`), "detector")
							names++
						}
					}
				case *ast.TypeSpec:
					if d.Name.Name != "Stats" {
						return true
					}
					st, ok := d.Type.(*ast.StructType)
					if !ok {
						return true
					}
					for _, fld := range st.Fields.List {
						for _, nm := range fld.Names {
							if nm.IsExported() {
								addWant(nm.Name, "exported Stats field")
								fields++
							}
						}
					}
				}
				return true
			})
		}
	}
	if names == 0 || fields == 0 {
		return nil, fmt.Errorf("doccheck: %s: found %d detector names in a constructors table and %d Stats fields, want both (wrong -detsrc?)", srcDir, names, fields)
	}
	data, err := os.ReadFile(docPath)
	if err != nil {
		return nil, fmt.Errorf("doccheck: %s: %w", docPath, err)
	}
	doc := string(data)
	var out []violation
	for i, name := range wanted {
		if !strings.Contains(doc, "`"+name+"`") {
			out = append(out, violation{
				pos:  token.Position{Filename: docPath, Line: 1},
				what: fmt.Sprintf("%s %q from %s is not mentioned (backticked) in the detector reference", origins[i], name, srcDir),
			})
		}
	}
	return out, nil
}

// pkgDoc is one -pkgdoc pairing of a reference doc and the package
// directory it must cover.
type pkgDoc struct {
	doc string
	src string
}

// pkgDocList collects repeated -pkgdoc flags.
type pkgDocList []pkgDoc

// String renders the list for flag's usage output.
func (l *pkgDocList) String() string {
	parts := make([]string, len(*l))
	for i, pd := range *l {
		parts[i] = pd.doc + ":" + pd.src
	}
	return strings.Join(parts, ",")
}

// Set parses one doc.md:srcdir pair.
func (l *pkgDocList) Set(v string) error {
	doc, src, ok := strings.Cut(v, ":")
	if !ok || doc == "" || src == "" {
		return fmt.Errorf("-pkgdoc %q: want doc.md:srcdir", v)
	}
	*l = append(*l, pkgDoc{doc: doc, src: src})
	return nil
}

// checkPackageDoc cross-checks a package reference doc against the
// package: every exported top-level identifier (function, type,
// const, var — methods follow their receiver type and are skipped)
// must appear backticked in the doc, so a new export cannot ship
// without the reference catching up.
func checkPackageDoc(docPath, srcDir string) ([]violation, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, srcDir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, fmt.Errorf("doccheck: %s: %w", srcDir, err)
	}
	var wanted []string
	seen := map[string]bool{}
	addWant := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			wanted = append(wanted, name)
		}
	}
	for _, pkg := range pkgs {
		files := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			files = append(files, name)
		}
		sort.Strings(files)
		for _, fname := range files {
			for _, decl := range pkg.Files[fname].Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						addWant(d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								addWant(s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, nm := range s.Names {
								if nm.IsExported() {
									addWant(nm.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	if len(wanted) == 0 {
		return nil, fmt.Errorf("doccheck: %s: found no exported identifiers (wrong -pkgdoc source?)", srcDir)
	}
	data, err := os.ReadFile(docPath)
	if err != nil {
		return nil, fmt.Errorf("doccheck: %s: %w", docPath, err)
	}
	doc := string(data)
	var out []violation
	sort.Strings(wanted)
	for _, name := range wanted {
		if !strings.Contains(doc, "`"+name+"`") && !strings.Contains(doc, "`"+name+"(") && !strings.Contains(doc, "."+name+"`") {
			out = append(out, violation{
				pos:  token.Position{Filename: docPath, Line: 1},
				what: fmt.Sprintf("exported identifier %q of %s is not mentioned (backticked) in the package reference", name, srcDir),
			})
		}
	}
	return out, nil
}

func receiverTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
