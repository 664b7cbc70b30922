package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// counts are the work tallies a span carries, measured at the same
// boundary as its time so ratios divide like by like.
type counts struct {
	Events     int64 `json:"events,omitempty"`
	Executions int64 `json:"executions,omitempty"`
	Reports    int64 `json:"reports,omitempty"`
	Bytes      int64 `json:"bytes,omitempty"`
	Allocs     int64 `json:"allocs,omitempty"`
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
}

// add sums c and o field by field.
func (c counts) add(o counts) counts {
	return counts{
		Events:     c.Events + o.Events,
		Executions: c.Executions + o.Executions,
		Reports:    c.Reports + o.Reports,
		Bytes:      c.Bytes + o.Bytes,
		Allocs:     c.Allocs + o.Allocs,
		AllocBytes: c.AllocBytes + o.AllocBytes,
	}
}

// span is one timed call into a layer, recorded around the call by the
// benchmark. Parent 0 marks a root span; Op groups the spans of one
// operation (one file read, one night, one request).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Counts counts `json:"counts"`
}

// tracer keeps every span in memory until the run ends. It is safe for
// concurrent use: sweep workers and HTTP clients record into one tracer.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int64) int64 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes span id with its counts.
func (t *tracer) end(id int64, c counts) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counts = c
}

// write stores the spans as JSON Lines, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the duration of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// layer is the total of every span of one name.
type layer struct {
	n      int64         // spans
	wall   time.Duration // summed durations
	self   time.Duration // summed self times
	counts counts
}

// layers totals the spans by name, with self times.
func (t *tracer) layers() map[string]layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	out := map[string]layer{}
	for i, s := range t.spans {
		l := out[s.Name]
		l.n++
		l.wall += time.Duration(s.End - s.Start)
		l.self += time.Duration(self[i])
		l.counts = l.counts.add(s.Counts)
		out[s.Name] = l
	}
	return out
}

// selfTimes returns, for each span, its duration minus the part of it
// that its children cover. Overlapping children (concurrent calls) are
// counted once, and a child's time outside its parent is ignored.
func selfTimes(spans []span) []int64 {
	pos := make(map[int64]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	type interval struct{ lo, hi int64 }
	covered := make([][]interval, len(spans))
	for _, s := range spans {
		p, ok := pos[s.Parent]
		if s.Parent == 0 || !ok {
			continue
		}
		lo, hi := max(s.Start, spans[p].Start), min(s.End, spans[p].End)
		if hi > lo {
			covered[p] = append(covered[p], interval{lo, hi})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		iv := covered[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
		var sum, reach int64 = 0, s.Start
		for _, v := range iv {
			if v.hi <= reach {
				continue
			}
			sum += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		out[i] = s.End - s.Start - sum
	}
	return out
}

// per divides a total by a count, returning 0 for an empty count.
func per(total float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// String renders a layer total as a note in the report.
func (l layer) String() string {
	return fmt.Sprintf("%d spans, self %v of %v", l.n, l.self.Round(time.Microsecond), l.wall.Round(time.Microsecond))
}
