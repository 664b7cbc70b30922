// Package patterns is the corpus of data race patterns from §4 of the
// paper. Every listing (1–11) and every category row of Tables 2 and 3
// has at least one corpus entry, each with two variants:
//
//   - Racy: a faithful transliteration of the buggy code into the
//     modeled runtime; under some schedule it produces unordered
//     conflicting accesses.
//   - Fixed: the repaired version (the fix the paper describes or the
//     fix class of Table 3); race-free under every schedule.
//
// Programs push pseudo stack frames named after the paper's listings,
// so detector reports read like the study's examples, and they name
// variables with the corpus conventions the classifier keys on
// (a human labeling the same reports would use the same cues: "err",
// a range variable, a map's internal state, a Test* root frame...).
package patterns

import (
	"fmt"
	"sort"
	"strings"

	"gorace/internal/sched"
	"gorace/internal/taxonomy"
)

// Pattern is one corpus entry.
type Pattern struct {
	// ID is the stable corpus identifier, e.g. "capture-loop-index".
	ID string
	// Listing is the paper listing number (0 when the pattern comes
	// from a table row without a listing).
	Listing int
	// Cat is the primary taxonomy category (ground truth).
	Cat taxonomy.Category
	// Secondary lists additional applicable categories; the paper's
	// labels "are not mutually exclusive".
	Secondary []taxonomy.Category
	// Description summarizes the root cause.
	Description string
	// Racy is the buggy program; Fixed is the repaired program.
	Racy  func(*sched.G)
	Fixed func(*sched.G)
}

var registry []Pattern

func register(p Pattern) {
	registry = append(registry, p)
}

// All returns the corpus in deterministic (ID) order.
func All() []Pattern {
	out := make([]Pattern, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks a pattern up by identifier.
func ByID(id string) (Pattern, bool) {
	for _, p := range registry {
		if p.ID == id {
			return p, true
		}
	}
	return Pattern{}, false
}

// ByCategory returns all patterns whose primary category is cat.
func ByCategory(cat taxonomy.Category) []Pattern {
	var out []Pattern
	for _, p := range All() {
		if p.Cat == cat {
			out = append(out, p)
		}
	}
	return out
}

// IDs returns all corpus identifiers in deterministic order.
func IDs() []string {
	var out []string
	for _, p := range All() {
		out = append(out, p.ID)
	}
	return out
}

// Catalog renders the corpus as a markdown table (PATTERNS.md); a
// test keeps the committed file in sync with the registry.
func Catalog() string {
	var b strings.Builder
	b.WriteString("# Race pattern corpus\n\n")
	b.WriteString("Generated from `internal/patterns` — do not edit by hand.\n")
	b.WriteString("Each pattern has a `Racy` and a `Fixed` variant; run one with\n")
	b.WriteString("`go run ./cmd/racedetect -pattern <id>`.\n\n")
	b.WriteString("| ID | Listing | Category | Description |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, p := range All() {
		listing := "—"
		if p.Listing > 0 {
			listing = fmt.Sprintf("%d", p.Listing)
		}
		cats := string(p.Cat)
		for _, s := range p.Secondary {
			cats += ", " + string(s)
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", p.ID, listing, cats, p.Description)
	}
	return b.String()
}

// Validate checks registry invariants (unique IDs, both variants
// present, category known, no listing number in the description,
// since Listing is its own field); the test suite calls it.
func Validate() error {
	seen := make(map[string]bool)
	for _, p := range registry {
		if p.ID == "" {
			return fmt.Errorf("pattern with empty ID: %q", p.Description)
		}
		if seen[p.ID] {
			return fmt.Errorf("duplicate pattern ID %q", p.ID)
		}
		seen[p.ID] = true
		if p.Racy == nil || p.Fixed == nil {
			return fmt.Errorf("pattern %q missing a variant", p.ID)
		}
		if strings.Contains(p.Description, "(Listing") {
			return fmt.Errorf("pattern %q: description names a listing; set Listing instead", p.ID)
		}
		if _, ok := taxonomy.ByCategory(p.Cat); !ok {
			return fmt.Errorf("pattern %q has unknown category %q", p.ID, p.Cat)
		}
		for _, c := range p.Secondary {
			if _, ok := taxonomy.ByCategory(c); !ok {
				return fmt.Errorf("pattern %q has unknown secondary category %q", p.ID, c)
			}
		}
	}
	return nil
}
