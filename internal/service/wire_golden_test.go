package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"gorace/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite the golden response bodies")

// copyGoldenStore opens a private copy of internal/corpus's golden
// store: two runs, one record with a trace, labels and locks, and one
// with no trace, category or labels and an empty stack.
func copyGoldenStore(t *testing.T) *corpus.Store {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "corpus", "testdata", "golden.grcs"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.grcs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := corpus.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// TestReadBodiesGolden pins the bytes of every read endpoint that
// renders a corpus record or run, over the golden store and over an
// empty one. The store's temporary path is replaced by "<store>", the
// one part of a body that differs between runs. Regenerate with
// `go test -run ReadBodiesGolden ./internal/service -update` after a
// deliberate wire-format change.
func TestReadBodiesGolden(t *testing.T) {
	store := copyGoldenStore(t)
	_, ts := newTestServer(t, Config{Store: store})
	empty, err := corpus.Open(filepath.Join(t.TempDir(), "empty.grcs"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { empty.Close() })
	_, tsEmpty := newTestServer(t, Config{Store: empty})

	for _, c := range []struct {
		golden, base, path string
		store              *corpus.Store
	}{
		{"stats.json", ts.URL, "/v1/stats", store},
		{"races.json", ts.URL, "/v1/races?limit=0", store},
		{"races-top.json", ts.URL, "/v1/races?sort=count&limit=1", store},
		{"race.json", ts.URL, "/v1/races/svc-001/TestFoo/1a2b3c", store},
		{"diff.json", ts.URL, "/v1/diff?a=2026-07-01&b=2026-07-02", store},
		{"stats-empty.json", tsEmpty.URL, "/v1/stats", empty},
	} {
		status, body, _ := get(t, c.base+c.path)
		if status != http.StatusOK {
			t.Fatalf("GET %s: %d %s", c.path, status, body)
		}
		quoted, _ := json.Marshal(c.store.Path())
		body = bytes.ReplaceAll(body, quoted[1:len(quoted)-1], []byte("<store>"))
		path := filepath.Join("testdata", c.golden)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("GET %s drifted from %s:\n got %s\nwant %s", c.path, path, body, want)
		}
	}
}
