// Command raceinstrument rewrites a real Go package onto the modeled
// scheduler's event vocabulary, producing a self-contained program
// function runnable under the repo's deterministic schedules and race
// detectors.
//
// General mode instruments one package directory:
//
//	raceinstrument -dir internal/taxonomy -harness internal/instrument/testdata/harness/taxonomy_harness.go -entry RacyAudit -name TaxonomyAudit -o out.go
//
// Dogfood mode regenerates every committed internal/progs source from
// the curated spec table (instrument.DogfoodPrograms):
//
//	raceinstrument -dogfood [-root .]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gorace/internal/instrument"
)

func main() {
	var (
		dir      = flag.String("dir", "", "subject package directory to instrument")
		harness  = flag.String("harness", "", "optional harness file merged into the package")
		entry    = flag.String("entry", "", "niladic entry function the program invokes")
		name     = flag.String("name", "", "generated program name (func Prog<name>)")
		out      = flag.String("o", "", "output file (default stdout)")
		coalesce = flag.Bool("coalesce", true, "coalesce redundant adjacent accesses")
		dogfood  = flag.Bool("dogfood", false, "regenerate the committed internal/progs sources")
		root     = flag.String("root", ".", "repo root (dogfood mode)")
	)
	flag.Parse()

	if *dogfood {
		if err := regenerate(*root); err != nil {
			fmt.Fprintln(os.Stderr, "raceinstrument:", err)
			os.Exit(1)
		}
		return
	}

	if *dir == "" || *entry == "" || *name == "" {
		fmt.Fprintln(os.Stderr, "raceinstrument: -dir, -entry, and -name are required (or use -dogfood)")
		os.Exit(2)
	}
	opts := instrument.Options{
		ProgName: *name, Entry: *entry, Coalesce: *coalesce,
	}
	if *harness != "" {
		src, err := os.ReadFile(*harness)
		if err != nil {
			fmt.Fprintln(os.Stderr, "raceinstrument:", err)
			os.Exit(1)
		}
		opts.ExtraFiles = map[string]string{"zz_harness.go": string(src)}
	}
	o, err := instrument.Dir(*dir, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "raceinstrument:", err)
		os.Exit(1)
	}
	if *out == "" {
		os.Stdout.Write(o.Source)
		return
	}
	if err := os.WriteFile(*out, o.Source, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "raceinstrument:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%s)\n", *out, o.FuncName)
}

// regenerate rewrites every dogfood target's generated files in place.
func regenerate(root string) error {
	for _, p := range instrument.DogfoodPrograms() {
		racy, fixed, err := instrument.GenerateDogfood(root, p)
		if err != nil {
			return err
		}
		for _, w := range []struct {
			path string
			src  []byte
			fn   string
		}{
			{p.OutRacy, racy.Source, racy.FuncName},
			{p.OutFixed, fixed.Source, fixed.FuncName},
		} {
			dst := filepath.Join(root, filepath.FromSlash(w.path))
			if err := os.WriteFile(dst, w.src, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%s)\n", w.path, w.fn)
		}
	}
	return nil
}
