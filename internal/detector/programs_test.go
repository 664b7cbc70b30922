package detector_test

import (
	"testing"

	"gorace/internal/detector"
	"gorace/internal/progs"
)

// TestAdaptiveFastTrackMatchesLegacyOnPrograms runs every
// instrumented dogfood program (racy and fixed variants) through both
// representations over several seeds each.
func TestAdaptiveFastTrackMatchesLegacyOnPrograms(t *testing.T) {
	for _, p := range progs.Programs() {
		for seed := int64(0); seed < 5; seed++ {
			detector.CompareToLegacy(t, "prog:"+p.Name, p.Racy, seed)
			if p.Fixed != nil {
				detector.CompareToLegacy(t, "prog:"+p.Name+"/fixed", p.Fixed, seed)
			}
		}
	}
}
