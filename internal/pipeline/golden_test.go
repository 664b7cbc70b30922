package pipeline

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the simulation output goldens")

// deploymentConfig is examples/deployment's compressed 90-day run.
func deploymentConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 90
	cfg.PreexistingRaces = 120
	cfg.InitialRelease = 40
	cfg.NewRacesPerDay = 1.5
	cfg.FloodgateDay = 45
	cfg.ShepherdEndDay = 60
	cfg.Engineers = 40
	cfg.Teams = 5
	cfg.Files = 400
	return cfg
}

// TestOutputGolden pins the byte-exact summary table and Figure 3/4
// series of the calibrated default run and of the deployment example,
// so a refactor of the simulation cannot move a single number. The
// range checks above only guard the calibration. Regenerate with
// `go test -run OutputGolden ./internal/pipeline -update` after a
// deliberate change to the simulation.
func TestOutputGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"deployment", deploymentConfig()},
	} {
		o := Run(c.cfg)
		for _, out := range []struct{ file, got string }{
			{c.name + "-summary.txt", FormatSummary(o.Summary)},
			{c.name + "-fig3.csv", FormatFigure3(o)},
			{c.name + "-fig4.csv", FormatFigure4(o)},
		} {
			path := filepath.Join("testdata", out.file)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out.got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test -run OutputGolden ./internal/pipeline -update` to create it)", err)
			}
			if out.got != string(want) {
				t.Errorf("%s drifted from its golden:\n got:\n%s\nwant:\n%s", path, out.got, want)
			}
		}
	}
}
