package racegen

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"gorace/internal/taxonomy"
)

// keeperFingerprint renders a campaign's keepers per category, in
// category order: how many, and a hash of their IDs in keeper order.
func keeperFingerprint(res *Result) string {
	ids := make(map[taxonomy.Category][]string)
	for _, k := range res.Keepers {
		ids[k.Category] = append(ids[k.Category], k.ID)
	}
	cats := make([]string, 0, len(ids))
	for c := range ids {
		cats = append(cats, string(c))
	}
	sort.Strings(cats)
	parts := make([]string, len(cats))
	for i, c := range cats {
		h := fnv.New64a()
		for _, id := range ids[taxonomy.Category(c)] {
			fmt.Fprintf(h, "%s;", id)
		}
		parts[i] = fmt.Sprintf("%s:%d:%x", c, len(ids[taxonomy.Category(c)]), h.Sum64())
	}
	return strings.Join(parts, " ")
}

// TestCampaignKeepersPinned runs small fixed campaigns and pins their
// keepers per category. Keeper IDs depend on every schedule the
// campaign runs and on the categories classified from each unit's
// first racy trace, so a scheduler change that moves one decision, or
// a sweep.FirstRace that keeps a trace the worker's later runs
// overwrite, shows up here. The wants were recorded before the
// scheduler moved from channel handoffs to coroutines.
func TestCampaignKeepersPinned(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Rounds: 2, Budget: 6, Parallelism: 1},
			"capture-err:1:c46c09b1f9abd9e1 map:1:15f18f426441406b missing-lock:5:1760b592e5d8b1d5 mixed-chan-shared:3:915eebc01a23bef partial-atomics:2:ad86a981c61b7c1d"},
		{Config{Rounds: 1, Budget: 6, Seeds: 4, BaseSeed: 1, Parallelism: 1},
			"capture-err:1:80cfd7bef5fef680 group-sync:1:f8b7c3d886c60038 missing-lock:2:712b7590cc4dc056 mixed-chan-shared:2:49d9ebedab727dc3"},
	} {
		res, err := Run(context.Background(), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := keeperFingerprint(res); got != c.want {
			t.Errorf("%+v:\n got %s\nwant %s", c.cfg, got, c.want)
		}
	}
}
