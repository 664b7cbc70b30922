package instrument

import (
	"fmt"
	"os"
	"path/filepath"
)

// DogfoodProgram describes one curated instrumentation target: a real
// package from this repository (or a curated real-world bug shape
// under testdata/real) plus a harness defining racy and fixed entry
// points. cmd/raceinstrument -dogfood regenerates the committed
// internal/progs sources from this table, and a regeneration-guard
// test keeps the two in sync.
type DogfoodProgram struct {
	// Name is the registry name of the generated Program.
	Name string
	// Desc is a one-line description of the bug shape.
	Desc string
	// SubjectDir is the subject package directory, repo-relative.
	SubjectDir string
	// Harness is a repo-relative harness file merged into the subject
	// package (empty when the subject defines its own entries).
	Harness string
	// RacyEntry and FixedEntry name the niladic entry functions.
	RacyEntry  string
	FixedEntry string
	// RacyProg and FixedProg name the generated program functions
	// (Prog<RacyProg>, Prog<FixedProg>).
	RacyProg  string
	FixedProg string
	// OutRacy and OutFixed are the repo-relative generated files.
	OutRacy  string
	OutFixed string
	// Skip names subject-directory files left out of the instrumented
	// package: infrastructure sharing the directory without being part
	// of the bug shape.
	Skip []string
}

// DogfoodPrograms returns the curated instrumentation targets, sorted
// by name.
func DogfoodPrograms() []DogfoodProgram {
	return []DogfoodProgram{
		{
			Name:       "metrics-counter",
			Desc:       "partial atomics: plain ++ races with atomic ops on one counter",
			SubjectDir: "internal/instrument/testdata/real/metrics",
			RacyEntry:  "RacyServe",
			FixedEntry: "FixedServe",
			RacyProg:   "MetricsCounter",
			FixedProg:  "MetricsCounterFixed",
			OutRacy:    "internal/progs/metrics_counter_racy_gen.go",
			OutFixed:   "internal/progs/metrics_counter_fixed_gen.go",
		},
		{
			Name:       "stack-trace",
			Desc:       "unsynchronized push/capture on a shared frame stack (internal/stack)",
			SubjectDir: "internal/stack",
			// The interning depot is detector infrastructure that shares
			// the package, not part of the push/capture bug shape.
			Skip:       []string{"depot.go"},
			Harness:    "internal/instrument/testdata/harness/stack_harness.go",
			RacyEntry:  "RacyTrace",
			FixedEntry: "FixedTrace",
			RacyProg:   "StackTrace",
			FixedProg:  "StackTraceFixed",
			OutRacy:    "internal/progs/stack_trace_racy_gen.go",
			OutFixed:   "internal/progs/stack_trace_fixed_gen.go",
		},
		{
			Name:       "taxonomy-audit",
			Desc:       "concurrent slice append vs. reads on the category table (internal/taxonomy)",
			SubjectDir: "internal/taxonomy",
			Harness:    "internal/instrument/testdata/harness/taxonomy_harness.go",
			RacyEntry:  "RacyAudit",
			FixedEntry: "FixedAudit",
			RacyProg:   "TaxonomyAudit",
			FixedProg:  "TaxonomyAuditFixed",
			OutRacy:    "internal/progs/taxonomy_audit_racy_gen.go",
			OutFixed:   "internal/progs/taxonomy_audit_fixed_gen.go",
		},
	}
}

// GenerateDogfood instruments one dogfood target relative to the repo
// root and returns the racy and fixed generated sources. Coalescing is
// on, matching the committed internal/progs files.
func GenerateDogfood(root string, p DogfoodProgram) (racy, fixed *Output, err error) {
	extra := map[string]string{}
	if p.Harness != "" {
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(p.Harness)))
		if err != nil {
			return nil, nil, fmt.Errorf("dogfood %s: %w", p.Name, err)
		}
		// The zz_ prefix sorts the harness after the subject sources, so
		// generated declaration order tracks the subject package.
		extra["zz_harness.go"] = string(src)
	}
	dir := filepath.Join(root, filepath.FromSlash(p.SubjectDir))
	racy, err = Dir(dir, Options{ProgName: p.RacyProg, Entry: p.RacyEntry, Coalesce: true, ExtraFiles: extra, SkipFiles: p.Skip})
	if err != nil {
		return nil, nil, fmt.Errorf("dogfood %s (racy): %w", p.Name, err)
	}
	fixed, err = Dir(dir, Options{ProgName: p.FixedProg, Entry: p.FixedEntry, Coalesce: true, ExtraFiles: extra, SkipFiles: p.Skip})
	if err != nil {
		return nil, nil, fmt.Errorf("dogfood %s (fixed): %w", p.Name, err)
	}
	return racy, fixed, nil
}
