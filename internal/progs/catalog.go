package progs

import (
	"fmt"
	"strings"

	"gorace/internal/patterns"
	"gorace/internal/sched"
)

// Program is one instrumented program: a racy variant and (optionally)
// its fixed counterpart, both runnable under the modeled scheduler.
type Program struct {
	// Name identifies the program in CLIs, job specs, and reports.
	Name string
	// Desc is a one-line description of the bug shape.
	Desc string
	// Source names where the subject code came from (package path or
	// real-world provenance).
	Source string
	// Racy is the instrumented buggy entry point.
	Racy func(*sched.G)
	// Fixed is the instrumented corrected entry point, or nil.
	Fixed func(*sched.G)
}

// Programs returns the instrumented programs, sorted by name.
func Programs() []Program {
	return []Program{
		{
			Name:   "metrics-counter",
			Desc:   "partial atomics: plain ++ races with atomic ops on one counter",
			Source: "internal/instrument/testdata/real/metrics",
			Racy:   ProgMetricsCounter,
			Fixed:  ProgMetricsCounterFixed,
		},
		{
			Name:   "stack-trace",
			Desc:   "unsynchronized push/capture on a shared frame stack (internal/stack)",
			Source: "internal/stack",
			Racy:   ProgStackTrace,
			Fixed:  ProgStackTraceFixed,
		},
		{
			Name:   "taxonomy-audit",
			Desc:   "concurrent slice append vs. reads on the category table (internal/taxonomy)",
			Source: "internal/taxonomy",
			Racy:   ProgTaxonomyAudit,
			Fixed:  ProgTaxonomyAuditFixed,
		},
	}
}

// progPrefix marks a target id that names an instrumented program
// rather than a corpus pattern.
const progPrefix = "prog:"

// IDs returns every sweep target with a body for variant: the corpus
// pattern ids in catalog order, then "prog:<name>" for each
// instrumented program, sorted by name. Programs without a fixed body
// sit out the "fixed" variant. racedetect's -campaign and -sweep-rates
// sweep this set; a raced job spec with no patterns sweeps
// patterns.IDs() alone.
func IDs(variant string) []string {
	ids := patterns.IDs()
	for _, p := range Programs() {
		if variant != "fixed" || p.Fixed != nil {
			ids = append(ids, progPrefix+p.Name)
		}
	}
	return ids
}

// Resolve returns the body that target id runs under variant ("racy"
// or "fixed"). The id is a pattern id or "prog:<name>"; an unknown
// id, an unknown variant, or a program with no fixed body is an error.
func Resolve(id, variant string) (func(*sched.G), error) {
	if variant != "racy" && variant != "fixed" {
		return nil, fmt.Errorf("variant %q (want racy or fixed)", variant)
	}
	if name, isProg := strings.CutPrefix(id, progPrefix); isProg {
		for _, p := range Programs() {
			switch {
			case p.Name != name:
				continue
			case variant == "racy":
				return p.Racy, nil
			case p.Fixed == nil:
				return nil, fmt.Errorf("program %q has no fixed variant", name)
			}
			return p.Fixed, nil
		}
		return nil, fmt.Errorf("unknown program %q", name)
	}
	p, ok := patterns.ByID(id)
	switch {
	case !ok:
		return nil, fmt.Errorf("unknown pattern %q", id)
	case variant == "racy":
		return p.Racy, nil
	}
	return p.Fixed, nil
}
