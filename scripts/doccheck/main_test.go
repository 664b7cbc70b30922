package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cleanTree is a miniature repository that passes every check. It
// holds one command with top-level and flag.NewFlagSet flags, the three
// packages whose reference docs are pinned, and the docs themselves.
// Its docs use every accepted spelling: a `-name-*` family, a go tool
// flag, a flag-shaped span inside fenced code, and `name(` and `.name`
// forms of package exports.
var cleanTree = map[string]string{
	"cmd/tool/main.go": `// Command tool is a fixture command.
package main

import "flag"

func main() {
	flag.Bool("verbose", false, "talk more")
	flag.String("out", "", "output file")
	fs := flag.NewFlagSet("sub", flag.ExitOnError)
	fs.Int("sub-depth", 0, "depth")
	fs.Int("sub-width", 0, "width")
}
`,
	"internal/detector/detector.go": `// Package detector is a fixture detector registry.
package detector

// Stats counts detector work.
type Stats struct {
	Events int
	hidden int
}

var constructors = map[string]func() int{
	"alpha": nil,
	"beta":  nil,
}
`,
	"internal/stream/stream.go": `// Package stream is a fixture streaming package.
package stream

// Config configures ingest.
type Config struct{}

// Reset is a method, which the package reference need not name.
func (Config) Reset() {}

// Ingest consumes a stream.
func Ingest() {}
`,
	"internal/racegen/racegen.go": `// Package racegen is a fixture generator.
package racegen

// Suite returns the keepers.
func Suite() {}
`,
	"internal/racegen/testdata/fixture.go": `package fixture

func Undocumented() {}
`,
	"docs/CLI.md": "# CLI\n\n" +
		"| command | one line |\n|---|---|\n| [tool](#tool) | a tool |\n\n" +
		"## tool\n\n| flag | meaning |\n|---|---|\n" +
		"| `-verbose` | talk more |\n| `-out file` | output file |\n\n" +
		"The `sub` subcommand takes `-sub-depth n` and `-sub-width=n`.\n",
	"docs/DETECTORS.md":  "# Detectors\n\n`alpha` and `beta` count `Events`.\n",
	"docs/STREAMING.md":  "# Streaming\n\nCall `Ingest()` with a `stream.Config`.\n",
	"docs/GENERATION.md": "# Generation\n\n`Suite` returns the keepers.\n",
	"README.md": "# Fixture\n\nThe `-sub-*` flags shape the subcommand; test with `-race`.\n\n" +
		"```\n`-fenced` is inside a code block\n```\n",
}

// writeTree writes cleanTree with edits applied under a fresh
// directory: an edit replaces or adds a file, and an empty edit
// deletes it.
func writeTree(t *testing.T, edits map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{}
	for name, src := range cleanTree {
		files[name] = src
	}
	for name, src := range edits {
		if src == "" {
			delete(files, name)
			continue
		}
		files[name] = src
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestCheck runs the checker over the clean tree and one edit per
// violation class. Each want is "file: substring": one violation in
// that file (relative to the tree) must contain the substring, and no
// other violation may be reported.
func TestCheck(t *testing.T) {
	cli := cleanTree["docs/CLI.md"]
	cases := []struct {
		name    string
		edits   map[string]string
		want    []string
		wantErr string
	}{
		{name: "clean tree"},
		{
			name:  "missing package doc",
			edits: map[string]string{"internal/racegen/racegen.go": "package racegen\n\n// Suite returns the keepers.\nfunc Suite() {}\n"},
			want:  []string{"internal/racegen/racegen.go: package racegen has no package doc comment"},
		},
		{
			name: "undocumented exports",
			edits: map[string]string{"internal/util/util.go": `// Package util is a fixture helper package.
package util

func Helper() {}

type Box struct{}

func (Box) Open() {}

const Limit = 3

var Shared int
`},
			want: []string{
				"internal/util/util.go: exported function Helper is undocumented",
				"internal/util/util.go: exported type Box is undocumented",
				"internal/util/util.go: exported method Box.Open is undocumented",
				"internal/util/util.go: exported const Limit is undocumented",
				"internal/util/util.go: exported var Shared is undocumented",
			},
		},
		{
			name:  "command without section or table row",
			edits: map[string]string{"cmd/other/main.go": "// Command other is a second fixture command.\npackage main\n\nfunc main() {}\n"},
			want: []string{
				`docs/CLI.md: has no "## other" section`,
				"docs/CLI.md: other is missing from the command table",
			},
		},
		{
			name: "command with section but no table row",
			edits: map[string]string{
				"cmd/other/main.go": "// Command other is a second fixture command.\npackage main\n\nfunc main() {}\n",
				"docs/CLI.md":       cli + "\n## other\n\nTakes no flags.\n",
			},
			want: []string{"docs/CLI.md: other is missing from the command table"},
		},
		{
			name:  "stale section",
			edits: map[string]string{"docs/CLI.md": cli + "\n## gone\n\nA deleted command.\n"},
			want:  []string{`docs/CLI.md: section "gone" documents a command missing from`},
		},
		{
			name: "registered flag missing from its section",
			edits: map[string]string{"cmd/tool/main.go": strings.Replace(cleanTree["cmd/tool/main.go"],
				"\tfs :=", "\tflag.Int(\"verbose-level\", 0, \"\")\n\tfs :=", 1)},
			want: []string{"docs/CLI.md: flag -verbose-level of"},
		},
		{
			name:  "table row names an unregistered flag",
			edits: map[string]string{"docs/CLI.md": strings.Replace(cli, "| `-out file`", "| `-removed` | gone |\n| `-out file`", 1)},
			want: []string{
				"docs/CLI.md: table row names -removed",
				"docs/CLI.md: `-removed` names a flag no command",
			},
		},
		{
			name:  "subcommand flag in a table row",
			edits: map[string]string{"docs/CLI.md": strings.Replace(cli, "| `-out file`", "| `-sub-depth n` | depth |\n| `-out file`", 1)},
			want:  []string{"docs/CLI.md: table row names -sub-depth"},
		},
		{
			name: "stray flag spans",
			edits: map[string]string{"README.md": cleanTree["README.md"] +
				"Run with `-bogus`, `-out=x` or `-nope-*`; `-verbose`-ordered output names no flag.\n"},
			want: []string{
				"README.md: `-bogus` names a flag no command",
				"README.md: `-nope-*` names a flag no command",
			},
		},
		{
			name: "detector name and Stats field missing from the reference",
			edits: map[string]string{"internal/detector/detector.go": strings.NewReplacer(
				"\thidden int", "\thidden int\n\tDrops  int",
				"\"beta\":  nil,", "\"beta\":  nil,\n\t\"gamma\": nil,",
			).Replace(cleanTree["internal/detector/detector.go"])},
			want: []string{
				`docs/DETECTORS.md: detector "gamma"`,
				`docs/DETECTORS.md: exported Stats field "Drops"`,
			},
		},
		{
			name:  "detector reference accepts only the backticked name",
			edits: map[string]string{"docs/DETECTORS.md": "# Detectors\n\n`alpha`, `beta(` and .beta` count `Events`.\n"},
			want:  []string{`docs/DETECTORS.md: detector "beta"`},
		},
		{
			name: "package export missing from its reference",
			edits: map[string]string{
				"internal/stream/drain.go":  "package stream\n\n// Drain empties the stream.\nfunc Drain() {}\n",
				"internal/racegen/extra.go": "package racegen\n\n// Budget bounds a round.\nconst Budget = 8\n",
			},
			want: []string{
				`docs/STREAMING.md: exported identifier "Drain"`,
				`docs/GENERATION.md: exported identifier "Budget"`,
			},
		},
		{
			name: "missing constructors table",
			edits: map[string]string{"internal/detector/detector.go": strings.Replace(cleanTree["internal/detector/detector.go"],
				"var constructors", "var builders", 1)},
			wantErr: "detector names",
		},
		{
			name: "missing Stats struct",
			edits: map[string]string{"internal/detector/detector.go": strings.Replace(cleanTree["internal/detector/detector.go"],
				"type Stats struct", "type Counts struct", 1)},
			wantErr: "Stats fields",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := writeTree(t, tc.edits)
			violations, err := check(root)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, v := range violations {
				file := strings.TrimPrefix(filepath.ToSlash(v.pos.Filename), filepath.ToSlash(root)+"/")
				got = append(got, file+": "+v.what)
			}
			matched := make([]bool, len(got))
			for _, w := range tc.want {
				file, sub, _ := strings.Cut(w, ": ")
				found := false
				for i, g := range got {
					if !matched[i] && strings.HasPrefix(g, file+": ") && strings.Contains(g, sub) {
						matched[i], found = true, true
						break
					}
				}
				if !found {
					t.Errorf("no violation matches %q", w)
				}
			}
			for i, g := range got {
				if !matched[i] {
					t.Errorf("unexpected violation %s", g)
				}
			}
		})
	}
}
