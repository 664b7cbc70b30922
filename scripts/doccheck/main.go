// Command doccheck enforces the repo's documentation bar. It parses
// every package directory under internal/ and cmd/ once and runs one
// rule list over that parse; it takes no flags. scripts/doccheck.sh
// runs it, and CI runs that script as a blocking step. The rules:
//
//   - Doc comments. Every package and every exported identifier under
//     internal/ and cmd/ carries a doc comment. An exported identifier
//     (top-level function, method, type, const, var) counts as
//     documented if it has its own doc comment, inherits one from its
//     enclosing const/var/type block, or carries a trailing line
//     comment (the idiomatic form inside grouped const blocks). Methods
//     are checked only on exported receiver types; struct fields follow
//     the surrounding struct's doc. Test files and testdata trees are
//     skipped.
//   - docs/CLI.md against cmd/. Every directory under cmd/ holding Go
//     files has a "## <name>" section and a command-table row, and every
//     "## <name>" section names a real command. Every flag a command
//     registers on its own command line (package-level
//     flag.String/Bool/... calls) appears backticked (`-name`) in its
//     section, and every backticked flag in the first cell of a table
//     row in that section is one the command registers there.
//     Subcommand flag.NewFlagSet flags are documented per subcommand,
//     outside the flag tables.
//   - Flag spans in docs/*.md and README.md. An inline code span that
//     is exactly one flag — `-name`, `-name value` or `-name=value` —
//     names a flag some command registers, on its own command line or
//     on a flag.NewFlagSet subcommand set, or one of the go tool's flags
//     the docs use (goToolFlags). A span `-name-*` stands for every
//     registered flag beginning "name-". Spans are parsed whole, so
//     "`Seq`-ordered" names no flag; fenced code blocks are skipped.
//   - docs/DETECTORS.md against internal/detector. Every detector name
//     (each string key of the constructors table) and every exported
//     field of the Stats struct appears as `name`.
//   - docs/STREAMING.md against internal/stream, and docs/GENERATION.md
//     against internal/racegen. Every exported top-level identifier
//     (function, type, const, var; methods follow their receiver type)
//     appears backticked: `Name`, a call span opening `Name(, or a
//     qualified span closing .Name`.
//
// Finding no detector names, no Stats fields or no package exports is
// an error, not a pass: the source has moved, not become empty.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// The trees and documents the rules cover, relative to the repo root.
const (
	cliDoc = "docs/CLI.md"
	cmdDir = "cmd"
	detDoc = "docs/DETECTORS.md"
	detSrc = "internal/detector"
)

// srcRoots are the trees parsed, and held to the doc-comment rule.
var srcRoots = []string{"internal", "cmd"}

// flagDocs are the globs of markdown files whose flag spans are checked.
var flagDocs = []string{"docs/*.md", "README.md"}

// rule is one check over the parsed repository.
type rule struct {
	name  string // what the rule enforces, for the success line
	check func(r *repo) ([]violation, error)
}

var rules = []rule{
	{"doc comments under internal/ and cmd/", checkDocComments},
	{cliDoc + " against cmd/", checkCLIDoc},
	{"flag spans in docs/*.md and README.md", checkFlagSpans},
	{detDoc + " against " + detSrc, checkDetectorDoc},
	packageDocRule("docs/STREAMING.md", "internal/stream"),
	packageDocRule("docs/GENERATION.md", "internal/racegen"),
}

// violation is one problem a rule found.
type violation struct {
	pos  token.Position
	what string
}

func main() {
	violations, err := check(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, v := range violations {
		fmt.Printf("%s: %s\n", v.pos, v.what)
	}
	if len(violations) > 0 {
		fmt.Printf("doccheck: %d problem(s)\n", len(violations))
		os.Exit(1)
	}
	names := make([]string, len(rules))
	for i, rl := range rules {
		names[i] = rl.name
	}
	fmt.Printf("doccheck: ok: %s\n", strings.Join(names, "; "))
}

// check parses the repository rooted at root, runs every rule over it
// and returns the violations sorted by position.
func check(root string) ([]violation, error) {
	r, err := load(root)
	if err != nil {
		return nil, err
	}
	var out []violation
	for _, rl := range rules {
		v, err := rl.check(r)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out, nil
}

// repo is the repository as the rules see it.
type repo struct {
	root     string
	fset     *token.FileSet
	dirs     []string         // package directories, slash-separated and sorted
	pkgs     map[string][]pkg // the packages of each directory in dirs
	commands []command        // the directories under cmd/ holding Go files
}

// pkg is one parsed package: its name and non-test files in file order.
type pkg struct {
	name  string
	files []*ast.File
}

// command is one directory under cmd/ and the flags its package
// registers, each list sorted.
type command struct {
	name string
	top  []string // on its own command line
	sub  []string // on flag.NewFlagSet subcommand sets
}

// path returns the file path of rel, a slash path under the root.
func (r *repo) path(rel string) string {
	return filepath.Join(r.root, filepath.FromSlash(rel))
}

// load parses every package directory under srcRoots once and lists
// the commands with the flags they register.
func load(root string) (*repo, error) {
	r := &repo{root: root, fset: token.NewFileSet(), pkgs: map[string][]pkg{}}
	for _, sr := range srcRoots {
		dirs, err := goDirs(r.path(sr))
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			parsed, err := parser.ParseDir(r.fset, dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("doccheck: %s: %w", dir, err)
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return nil, err
			}
			rel = filepath.ToSlash(rel)
			r.dirs = append(r.dirs, rel)
			for name, p := range parsed {
				files := make([]string, 0, len(p.Files))
				for f := range p.Files {
					files = append(files, f)
				}
				sort.Strings(files)
				pk := pkg{name: name}
				for _, f := range files {
					pk.files = append(pk.files, p.Files[f])
				}
				r.pkgs[rel] = append(r.pkgs[rel], pk)
			}
			sort.Slice(r.pkgs[rel], func(i, j int) bool { return r.pkgs[rel][i].name < r.pkgs[rel][j].name })
		}
	}
	entries, err := os.ReadDir(r.path(cmdDir))
	if err != nil {
		return nil, fmt.Errorf("doccheck: %s: %w", cmdDir, err)
	}
	for _, e := range entries {
		// A directory holding Go files, test files included, is a command.
		if files, _ := filepath.Glob(filepath.Join(r.path(cmdDir), e.Name(), "*.go")); !e.IsDir() || len(files) == 0 {
			continue
		}
		c := command{name: e.Name()}
		for _, p := range r.pkgs[cmdDir+"/"+e.Name()] {
			registeredFlags(p.files, &c)
		}
		slices.Sort(c.top)
		slices.Sort(c.sub)
		c.top, c.sub = slices.Compact(c.top), slices.Compact(c.sub)
		r.commands = append(r.commands, c)
	}
	return r, nil
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

// checkDocComments reports undocumented packages and exported
// identifiers.
func checkDocComments(r *repo) ([]violation, error) {
	var out []violation
	for _, dir := range r.dirs {
		for _, p := range r.pkgs[dir] {
			if !slices.ContainsFunc(p.files, func(f *ast.File) bool { return f.Doc != nil }) {
				out = append(out, violation{
					pos:  r.fset.Position(p.files[0].Package),
					what: fmt.Sprintf("package %s has no package doc comment", p.name),
				})
			}
			exportedTypes := exportedTypeNames(p.files)
			for _, f := range p.files {
				out = append(out, checkFile(r.fset, f, exportedTypes)...)
			}
		}
	}
	return out, nil
}

// exportedTypeNames collects the package's exported type names, the
// receivers whose methods must be documented.
func exportedTypeNames(files []*ast.File) map[string]bool {
	out := map[string]bool{}
	for _, f := range files {
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

// checkCLIDoc cross-checks the CLI reference against the commands:
// every command needs a "## <name>" section and a table row linking to
// it, every "## <name>" heading must name a command that still exists,
// every flag a command registers on its own command line must appear
// backticked in that command's section, and every flag a table row's
// first cell names must be one of those.
func checkCLIDoc(r *repo) ([]violation, error) {
	docPath := r.path(cliDoc)
	data, err := os.ReadFile(docPath)
	if err != nil {
		return nil, fmt.Errorf("doccheck: %s: %w", cliDoc, err)
	}
	isCommand := map[string]bool{}
	for _, c := range r.commands {
		isCommand[c.name] = true
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
			if !isCommand[name] {
				out = append(out, violation{
					pos:  token.Position{Filename: docPath, Line: i + 1},
					what: fmt.Sprintf("section %q documents a command missing from %s/", name, cmdDir),
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
	for _, c := range r.commands {
		body, hasSection := sections[c.name]
		if !hasSection {
			out = append(out, violation{
				pos:  token.Position{Filename: docPath, Line: 1},
				what: fmt.Sprintf("command %s/%s has no \"## %s\" section", cmdDir, c.name, c.name),
			})
		}
		if !tableRows[c.name] {
			out = append(out, violation{
				pos:  token.Position{Filename: docPath, Line: 1},
				what: fmt.Sprintf("command %s/%s is missing from the command table", cmdDir, c.name),
			})
		}
		if !hasSection {
			continue
		}
		for _, fl := range c.top {
			if !flagDocumented(body.String(), fl) {
				out = append(out, violation{
					pos:  token.Position{Filename: docPath, Line: sectionLine[c.name]},
					what: fmt.Sprintf("flag -%s of %s/%s is not mentioned (`-%s`) in its section", fl, cmdDir, c.name, fl),
				})
			}
		}
		for _, row := range flagRows[c.name] {
			for _, fl := range row.flags {
				if !slices.Contains(c.top, fl) {
					out = append(out, violation{
						pos:  token.Position{Filename: docPath, Line: row.line},
						what: fmt.Sprintf("table row names -%s, which %s/%s does not register", fl, cmdDir, c.name),
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

// flagRegistrars are the flag constructors whose first argument names
// a command-line flag.
var flagRegistrars = map[string]bool{
	"Bool": true, "Duration": true, "Float64": true,
	"Int": true, "Int64": true, "String": true,
	"Uint": true, "Uint64": true,
}

// registeredFlags adds to c the flags a command's files register, in
// one walk: the string literals passed to package-level
// flag.String/Bool/Int/... calls go to c.top, and those passed to the
// same methods of a variable assigned from flag.NewFlagSet go to c.sub.
func registeredFlags(files []*ast.File, c *command) {
	for _, f := range files {
		sets := map[string]bool{} // this file's flag.NewFlagSet variables
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
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
			id, ok := sel.X.(*ast.Ident)
			lit, isLit := call.Args[0].(*ast.BasicLit)
			if !ok || !isLit || lit.Kind != token.STRING {
				return true
			}
			name := strings.Trim(lit.Value, `"`)
			switch {
			case id.Name == "flag":
				c.top = append(c.top, name)
			case sets[id.Name]:
				c.sub = append(c.sub, name)
			}
			return true
		})
	}
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

// checkFlagSpans fails every inline code span of the flagDocs files
// that is exactly one flag no command registers (see the package
// comment).
func checkFlagSpans(r *repo) ([]violation, error) {
	registered := map[string]bool{}
	for _, c := range r.commands {
		for _, fl := range c.top {
			registered[fl] = true
		}
		for _, fl := range c.sub {
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
	for _, g := range flagDocs {
		m, err := filepath.Glob(r.path(g))
		if err != nil || len(m) == 0 {
			return nil, fmt.Errorf("doccheck: %q matches no file", g)
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
					what: fmt.Sprintf("`%s` names a flag no command under %s/ registers", span, cmdDir),
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

// mention is a name a reference doc must mention, and the problem
// reported when it does not.
type mention struct {
	name, what string
}

// checkMentions reports, at line 1 of doc, each wanted name that the
// doc mentions in none of the spellings (formats with one %s for the
// name).
func checkMentions(r *repo, doc string, wants []mention, spellings ...string) ([]violation, error) {
	data, err := os.ReadFile(r.path(doc))
	if err != nil {
		return nil, fmt.Errorf("doccheck: %s: %w", doc, err)
	}
	text := string(data)
	var out []violation
	for _, w := range wants {
		if !slices.ContainsFunc(spellings, func(s string) bool { return strings.Contains(text, fmt.Sprintf(s, w.name)) }) {
			out = append(out, violation{pos: token.Position{Filename: r.path(doc), Line: 1}, what: w.what})
		}
	}
	return out, nil
}

// checkDetectorDoc requires the detector reference to mention, as
// `name`, every detector name (each string key of the constructors
// table) and every exported field of the Stats struct, so neither a new
// detector nor a new counter can ship undocumented.
func checkDetectorDoc(r *repo) ([]violation, error) {
	var wants []mention
	var names, fields int
	want := func(origin, name string) {
		wants = append(wants, mention{name, fmt.Sprintf("%s %q from %s is not mentioned (backticked) in the detector reference", origin, name, detSrc)})
	}
	for _, p := range r.pkgs[detSrc] {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
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
							want("detector", strings.Trim(lit.Value, `"`))
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
								want("exported Stats field", nm.Name)
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
		return nil, fmt.Errorf("doccheck: %s: found %d detector names in a constructors table and %d Stats fields, want both", detSrc, names, fields)
	}
	return checkMentions(r, detDoc, wants, "`%s`")
}

// packageDocRule requires the package reference doc to mention every
// exported top-level identifier (function, type, const, var; methods
// follow their receiver type) of the package in src, as `Name`, as a
// call span opening `Name( or as a qualified span closing .Name`, so a
// new export cannot ship without the reference catching up.
func packageDocRule(doc, src string) rule {
	return rule{doc + " against " + src, func(r *repo) ([]violation, error) {
		seen := map[string]bool{}
		for _, p := range r.pkgs[src] {
			for _, f := range p.files {
				for _, decl := range f.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if d.Recv == nil && d.Name.IsExported() {
							seen[d.Name.Name] = true
						}
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							switch s := spec.(type) {
							case *ast.TypeSpec:
								if s.Name.IsExported() {
									seen[s.Name.Name] = true
								}
							case *ast.ValueSpec:
								for _, nm := range s.Names {
									if nm.IsExported() {
										seen[nm.Name] = true
									}
								}
							}
						}
					}
				}
			}
		}
		if len(seen) == 0 {
			return nil, fmt.Errorf("doccheck: %s: found no exported identifiers", src)
		}
		wants := make([]mention, 0, len(seen))
		for name := range seen {
			wants = append(wants, mention{name, fmt.Sprintf("exported identifier %q of %s is not mentioned (backticked) in the package reference", name, src)})
		}
		sort.Slice(wants, func(i, j int) bool { return wants[i].name < wants[j].name })
		return checkMentions(r, doc, wants, "`%s`", "`%s(", ".%s`")
	}}
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
