package racegen

import (
	"context"
	"os"
	"testing"
)

func TestGenSuite(t *testing.T) {
	if os.Getenv("RACEGEN_GEN") == "" {
		t.Skip("set RACEGEN_GEN=1 to regenerate the keeper suite")
	}
	res, err := Run(context.Background(), Config{Rounds: 4, Budget: 12, Parallelism: 4, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("keepers=%d fill=%v", len(res.Keepers), res.Fill)
	if err := SaveKeepers("testdata/keepers", res.Keepers); err != nil {
		t.Fatal(err)
	}
}
