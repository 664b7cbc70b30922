package stream

import (
	"bytes"
	"context"
	"testing"

	"gorace/internal/detector"
	"gorace/internal/progen"
	"gorace/internal/progs"
	"gorace/internal/report"
	"gorace/internal/sched"
	"gorace/internal/trace"
)

func raceHashes(races []report.Race) []string {
	out := make([]string, len(races))
	for i, r := range races {
		out[i] = r.Hash()
	}
	return out
}

// streamDiff runs prog once with a batch detector and a recorder
// attached, replays the recorded trace through the binary codec into
// an unbounded Ingestor, and requires the ordered report-hash
// sequences to be identical — streaming with no ceiling is batch
// detection, observed later.
func streamDiff(t *testing.T, name string, prog func(*sched.G), seed int64) {
	t.Helper()
	batch := detector.NewFastTrack()
	rec := &trace.Recorder{}
	sched.Run(prog, sched.Options{
		Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 18,
		Listeners: []trace.Listener{batch, rec},
	})

	var buf bytes.Buffer
	enc := trace.NewEncoder(&buf)
	for _, ev := range rec.Events {
		if err := enc.Encode(ev); err != nil {
			t.Fatalf("%s seed %d: encode: %v", name, seed, err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("%s seed %d: flush: %v", name, seed, err)
	}

	in, err := NewIngestor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Ingest(context.Background(), &buf)
	if err != nil {
		t.Fatalf("%s seed %d: ingest: %v", name, seed, err)
	}
	if res.Events != uint64(len(rec.Events)) {
		t.Fatalf("%s seed %d: ingested %d of %d events", name, seed, res.Events, len(rec.Events))
	}
	got, want := raceHashes(res.Races), raceHashes(batch.Races())
	if len(got) != len(want) {
		t.Fatalf("%s seed %d: streaming reported %d races, batch %d", name, seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s seed %d: report %d diverged:\nstream %s\nbatch  %s",
				name, seed, i, got[i], want[i])
		}
	}
	if res.Stats.Evictions != 0 || res.Stats.Reloads != 0 {
		t.Fatalf("%s seed %d: unbounded ingest evicted (evictions=%d reloads=%d)",
			name, seed, res.Stats.Evictions, res.Stats.Reloads)
	}
}

// TestStreamingMatchesBatchOnProgen pins the unbounded-streaming
// identity over 60 generated programs.
func TestStreamingMatchesBatchOnProgen(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		prog := progen.Generate(seed, progen.Params{})
		streamDiff(t, "progen", prog.Main(), seed)
	}
}

// TestStreamingMatchesBatchOnPrograms pins the identity over every
// instrumented dogfood program, racy and fixed variants.
func TestStreamingMatchesBatchOnPrograms(t *testing.T) {
	for _, p := range progs.Programs() {
		for seed := int64(0); seed < 3; seed++ {
			streamDiff(t, "prog:"+p.Name, p.Racy, seed)
			if p.Fixed != nil {
				streamDiff(t, "prog:"+p.Name+"/fixed", p.Fixed, seed)
			}
		}
	}
}
