package detector

import (
	"reflect"
	"testing"
)

// TestStatsAddCoversEveryField: Add is the one place that sums detector
// work, so a counter it misses silently drops out of every sweep tally
// and shard answer. Each field, found by reflection, gets a distinct
// value, and adding the record to itself must double every one.
func TestStatsAddCoversEveryField(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int {
			t.Fatalf("Stats.%s is a %s; this test sums int counters only", v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetInt(int64(i + 1))
	}
	sum := s
	sum.Add(s)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if want := int64(2 * (i + 1)); got.Field(i).Int() != want {
			t.Errorf("Stats.%s: Add gave %d, want %d", got.Type().Field(i).Name, got.Field(i).Int(), want)
		}
	}
}
