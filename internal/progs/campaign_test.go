package progs_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"gorace/internal/detector"
	"gorace/internal/patterns"
	"gorace/internal/progs"
	"gorace/internal/sched"
)

// TestCampaignNormalize pins the one campaign validation racedetect
// and raced share: zero fields take the documented defaults, a
// normalized campaign is a fixed point, and each bad field fails with
// the text both the CLI and raced's 400 answer print.
func TestCampaignNormalize(t *testing.T) {
	var c progs.Campaign
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	want := progs.Campaign{
		Patterns:   patterns.IDs(),
		Variant:    "racy",
		Detector:   detector.DefaultName,
		Strategies: sched.StrategyNames(),
		Seeds:      20,
	}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("defaults = %+v\nwant %+v", c, want)
	}
	again := c
	if err := again.Normalize(); err != nil || !reflect.DeepEqual(again, c) {
		t.Fatalf("renormalized = %+v, %v", again, err)
	}

	for _, tc := range []struct {
		name string
		c    progs.Campaign
		err  string
	}{
		{"duplicate strategy", progs.Campaign{Strategies: []string{"random", "pct", "random"}}, `duplicate strategy "random"`},
		{"empty strategy", progs.Campaign{Strategies: []string{"random", ""}}, "empty strategy name"},
		{"unknown strategy", progs.Campaign{Strategies: []string{"fifo"}}, `unknown strategy "fifo"`},
		{"duplicate target", progs.Campaign{Patterns: []string{"prog:stack-trace", "capture-err", "prog:stack-trace"}}, `duplicate pattern "prog:stack-trace"`},
		{"unknown pattern", progs.Campaign{Patterns: []string{"no-such-pattern"}}, `unknown pattern "no-such-pattern"`},
		{"unknown program", progs.Campaign{Patterns: []string{"prog:no-such-program"}}, `unknown program "no-such-program"`},
		{"unknown detector", progs.Campaign{Detector: "tsan"}, `unknown detector "tsan"`},
		{"unknown variant", progs.Campaign{Variant: "flaky"}, `variant "flaky" (want racy or fixed)`},
		{"negative sample", progs.Campaign{Sample: -1}, "sample -1 is negative"},
	} {
		if err := tc.c.Normalize(); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: Normalize = %v, want %q", tc.name, err, tc.err)
		}
	}
}

// TestCampaignUnits: a campaign expands target-major into one unit per
// target × strategy, each carrying the campaign's detector, seed
// range and sample rate.
func TestCampaignUnits(t *testing.T) {
	c := progs.Campaign{
		Patterns:   []string{"capture-err", "prog:metrics-counter"},
		Variant:    "fixed",
		Strategies: []string{"pct", "random"},
		Seeds:      3,
		BaseSeed:   7,
		Sample:     4,
	}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	units := c.Units()
	var ids []string
	for _, u := range units {
		ids = append(ids, u.ID)
		if u.Program == nil || u.Detector != detector.DefaultName || u.BaseSeed != 7 ||
			u.Runs != 3 || u.SampleRate != 4 || !u.Record || u.Strategy != strings.SplitN(u.ID, "/", 2)[1] {
			t.Errorf("unit %+v", u)
		}
	}
	want := []string{"capture-err/pct", "capture-err/random", "prog:metrics-counter/pct", "prog:metrics-counter/random"}
	if !slices.Equal(ids, want) {
		t.Fatalf("unit ids = %v, want %v", ids, want)
	}
}
