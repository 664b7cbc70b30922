package trace_test

import (
	"bytes"
	"testing"

	"gorace/internal/detector"
	"gorace/internal/progen"
	"gorace/internal/sched"
	"gorace/internal/trace"
)

// recordProgen runs one random program live under FastTrack while
// recording, returning the live reports' hashes and the recording.
func recordProgen(t testing.TB, seed int64) ([]string, *trace.Recorder) {
	t.Helper()
	prog := progen.Generate(seed, progen.Params{})
	det := detector.NewFastTrack()
	rec := &trace.Recorder{}
	sched.Run(prog.Main(), sched.Options{
		Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 18,
		Listeners: []trace.Listener{det, rec},
	})
	return raceHashes(det), rec
}

func raceHashes(det detector.Detector) []string {
	var out []string
	for _, r := range det.Races() {
		out = append(out, r.Hash())
	}
	return out
}

// TestCodecReplayMatchesLiveDetection is the codec's end-to-end
// differential, mirroring the pooled-vs-fresh detector differentials:
// for ~60 random programs, a trace pushed through the binary codec
// (encode, decode, replay into a fresh detector) must produce exactly
// the race reports live detection produced. Any lossy field — a
// collapsed address delta, a dropped stack frame, a mangled label —
// shows up as a changed dedup hash here.
func TestCodecReplayMatchesLiveDetection(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		live, rec := recordProgen(t, seed)

		var buf bytes.Buffer
		if err := rec.Save(&buf); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		loaded, err := trace.Load(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		offline := detector.NewFastTrack()
		loaded.Replay(offline)
		replayed := raceHashes(offline)

		if len(live) != len(replayed) {
			t.Fatalf("seed %d: live detection %d races, replay-through-codec %d",
				seed, len(live), len(replayed))
		}
		for i := range live {
			if live[i] != replayed[i] {
				t.Fatalf("seed %d: race %d hash diverged: live %s, replayed %s",
					seed, i, live[i], replayed[i])
			}
		}
	}
}
