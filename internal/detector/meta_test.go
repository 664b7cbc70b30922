package detector

import (
	"reflect"
	"strings"
	"testing"

	"gorace/internal/stack"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// metaStream is two unordered goroutines writing and reading a few
// cells from a few sites: enough races to compare reports. name and
// label produce each event's goroutine name and label.
func metaStream(name func(g vclock.TID) string, label func(addr int) string) []trace.Event {
	evs := []trace.Event{
		{Seq: 1, Op: trace.OpFork, G: 0, Child: 1},
		{Seq: 2, Op: trace.OpFork, G: 0, Child: 2},
	}
	site := []stack.Context{
		stack.NewContext(stack.Frame{Func: "main", File: "m.go", Line: 3}),
		stack.NewContext(stack.Frame{Func: "work", File: "w.go", Line: 7}),
	}
	for i := 0; i < 60; i++ {
		g := vclock.TID(1 + i%2)
		op := trace.OpWrite
		if i%3 == 0 {
			op = trace.OpRead
		}
		addr := 1 + (i/2)%4
		evs = append(evs, trace.Event{
			Seq: uint64(len(evs) + 1), G: g, GName: name(g), Op: op,
			Addr: trace.Addr(addr), Label: label(addr), Stack: site[i%2],
		})
	}
	return evs
}

// TestEqualNamesAtOtherAddressesReportAlike: the meta index keys names
// and labels by address, so equal strings at different addresses take
// separate entries — and still yield exactly the reports that shared
// strings do.
func TestEqualNamesAtOtherAddressesReportAlike(t *testing.T) {
	names := map[vclock.TID]string{1: "worker-1", 2: "worker-2"}
	labels := []string{"", "a", "b", "c", "d"}
	shared := metaStream(func(g vclock.TID) string { return names[g] },
		func(a int) string { return labels[a] })
	copied := metaStream(func(g vclock.TID) string { return strings.Clone(names[g]) },
		func(a int) string { return strings.Clone(labels[a]) })

	run := func(evs []trace.Event) *FastTrack {
		ft := NewFastTrack()
		for _, ev := range evs {
			ft.HandleEvent(ev)
		}
		return ft
	}
	a, b := run(shared), run(copied)
	if len(a.Races()) == 0 {
		t.Fatal("no races from unordered goroutines")
	}
	if !reflect.DeepEqual(a.Races(), b.Races()) {
		t.Fatalf("reports differ:\nshared %+v\ncopied %+v", a.Races(), b.Races())
	}
	if len(b.metas) <= len(a.metas) {
		t.Fatalf("copied strings took %d meta entries, shared %d: keys are not by address",
			len(b.metas), len(a.metas))
	}
}

// BenchmarkMetaIndexMiss: every access misses the meta cache, so each
// one probes the index. The goroutine name is 16 B or 1 MiB; probes
// key on the name's address and length, so the two cost the same.
func BenchmarkMetaIndexMiss(b *testing.B) {
	const sites = 4096 // well past the 512-slot cache
	ctx := make([]stack.Context, sites)
	for i := range ctx {
		ctx[i] = stack.NewContext(stack.Frame{Func: "work", File: "w.go", Line: i})
	}
	for _, bc := range []struct {
		name string
		size int
	}{{"name=16B", 16}, {"name=1MiB", 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			gname := strings.Repeat("g", bc.size)
			ft := NewFastTrack()
			ft.HandleEvent(trace.Event{Seq: 1, Op: trace.OpFork, G: 0, Child: 1})
			ev := trace.Event{G: 1, GName: gname, Op: trace.OpWrite, Label: "x"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Seq = uint64(i + 2)
				ev.Addr = trace.Addr(1 + i%64)
				ev.Stack = ctx[(i*2654435761)%sites]
				ft.HandleEvent(ev)
			}
		})
	}
}
