package progs

import (
	"fmt"
	"strings"

	"gorace/internal/instrument"
	"gorace/internal/patterns"
	"gorace/internal/sched"
)

// progPrefix marks a target id that names an instrumented program
// rather than a corpus pattern.
const progPrefix = "prog:"

// IDs returns every sweep target with a body for variant: the corpus
// pattern ids in catalog order, then "prog:<name>" for each registered
// instrumented program, sorted by name. Programs without a fixed body
// sit out the "fixed" variant. racedetect's -campaign and -sweep-rates
// sweep this set; a raced job spec with no patterns sweeps
// patterns.IDs() alone.
func IDs(variant string) []string {
	ids := patterns.IDs()
	for _, p := range instrument.Programs() {
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
		p, ok := instrument.ProgramByName(name)
		switch {
		case !ok:
			return nil, fmt.Errorf("unknown program %q", name)
		case variant == "racy":
			return p.Racy, nil
		case p.Fixed == nil:
			return nil, fmt.Errorf("program %q has no fixed variant", name)
		}
		return p.Fixed, nil
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
