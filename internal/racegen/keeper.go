package racegen

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gorace/internal/taxonomy"
)

//go:embed testdata/keepers
var keeperFS embed.FS

// Suite returns the committed discriminating-program suite: every
// keeper a racegen loop has ever minimized and committed under
// testdata/keepers. CI replays the suite on every run and asserts the
// verdict signatures are byte-stable.
func Suite() ([]Keeper, error) {
	entries, err := keeperFS.ReadDir("testdata/keepers")
	if err != nil {
		return nil, err
	}
	var out []Keeper
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		raw, err := keeperFS.ReadFile("testdata/keepers/" + e.Name())
		if err != nil {
			return nil, err
		}
		var k Keeper
		if err := json.Unmarshal(raw, &k); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Replay re-evaluates one keeper and returns its current verdict
// signatures, for comparison against the committed ones. The config's
// Seeds/BaseSeed/MaxSteps must match the values the keeper was
// captured with (the defaults, unless the suite says otherwise).
func Replay(cfg Config, k Keeper) (map[string]string, error) {
	cfg = cfg.WithDefaults()
	ev, err := cfg.evaluate(k.Spec)
	if err != nil {
		return nil, err
	}
	return ev.signatures, nil
}

// SaveKeepers writes each keeper to dir as <id>.json (pretty-printed,
// trailing newline) — the format committed under testdata/keepers.
func SaveKeepers(dir string, keepers []Keeper) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, k := range keepers {
		raw, err := json.MarshalIndent(k, "", "  ")
		if err != nil {
			return err
		}
		raw = append(raw, '\n')
		if err := os.WriteFile(filepath.Join(dir, k.ID+".json"), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Markdown renders the campaign round table plus the category fill
// table, the format `racedetect -racegen -markdown` prints and CI
// publishes to the job summary.
func Markdown(res *Result) string {
	var b strings.Builder
	b.WriteString("### racegen rounds\n\n")
	b.WriteString("| round | candidates | disagreeing | kept | new edges | total edges |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, r := range res.Rounds {
		fmt.Fprintf(&b, "| %d | %d | %d | %d | %d | %d |\n",
			r.Round, r.Candidates, r.Disagreeing, r.Kept, r.NewEdges, r.TotalEdges)
	}
	b.WriteString("\n### category fill\n\n")
	b.WriteString("| category | keepers |\n")
	b.WriteString("|---|---|\n")
	cats := make([]taxonomy.Category, 0, len(res.Fill))
	for cat := range res.Fill {
		cats = append(cats, cat)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	for _, cat := range cats {
		fmt.Fprintf(&b, "| %s | %d |\n", cat, res.Fill[cat])
	}
	return b.String()
}
