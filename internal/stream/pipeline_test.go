package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gorace/internal/corpus"
	"gorace/internal/trace"
)

// decodeEvents decodes a whole binary trace.
func decodeEvents(t *testing.T, data []byte) []trace.Event {
	t.Helper()
	dec, err := trace.NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	for {
		ev, err := dec.Next()
		if err == io.EOF {
			return evs
		}
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
}

// encodeEvents encodes evs as one streamed trace.
func encodeEvents(t *testing.T, evs []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := trace.NewEncoder(&buf)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// guardedReader reads r until closed, then fails the test on any
// further Read: the decoder must never outlive Ingest. Reads are short,
// so a decoder that did outlive Ingest would still be reading. onRead,
// if set, runs before each Read with the bytes delivered so far.
type guardedReader struct {
	t      *testing.T
	r      io.Reader
	read   int
	onRead func(read int)
	closed atomic.Bool
}

func (g *guardedReader) Read(p []byte) (int, error) {
	if g.closed.Load() {
		g.t.Error("stream read after Ingest returned")
		return 0, io.EOF
	}
	if g.onRead != nil {
		g.onRead(g.read)
	}
	n, err := g.r.Read(p[:min(len(p), 256)])
	g.read += n
	return n, err
}

// settleGoroutines waits for the goroutine count to fall back to at
// most want, failing the test if it stays above.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Ingest returned, %d before", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngestJoinsDecoder: on every exit path — clean EOF, a decode
// error, and cancellation mid-stream — Ingest leaves no goroutine
// behind and never reads the stream after it returns.
func TestIngestJoinsDecoder(t *testing.T) {
	spec := SynthSpec{Events: 100000, Planted: 4, Seed: 11}.norm()
	data := synthBytes(t, spec)
	cases := []struct {
		name   string
		data   []byte
		cancel int // cancel once this many bytes were read; 0 never
		want   func(error) bool
	}{
		{"eof", data, 0, func(err error) bool { return err == nil }},
		{"decode-error", data[:len(data)/2], 0, func(err error) bool { return err != nil && !errors.Is(err, context.Canceled) }},
		{"cancelled", data, len(data) / 3, func(err error) bool { return err == context.Canceled }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			g := &guardedReader{t: t, r: bytes.NewReader(tc.data)}
			if tc.cancel > 0 {
				// Past the cut the reader also slows down, so the decoder
				// is still reading when the caller sees the cancellation.
				g.onRead = func(read int) {
					if read >= tc.cancel {
						cancel()
						time.Sleep(100 * time.Microsecond)
					}
				}
			}
			in, err := NewIngestor(Config{Collector: corpus.NewCollector("joins")})
			if err != nil {
				t.Fatal(err)
			}
			res, err := in.Ingest(ctx, g)
			g.closed.Store(true)
			if !tc.want(err) {
				t.Fatalf("Ingest error = %v", err)
			}
			if tc.cancel > 0 && res.Events >= uint64(spec.Events) {
				t.Fatalf("cancelled ingest consumed the whole stream (%d events)", res.Events)
			}
			if res.Events != uint64(res.Stats.Events) {
				t.Fatalf("result says %d events, detector saw %d", res.Events, res.Stats.Events)
			}
			settleGoroutines(t, before)
		})
	}
}

// panicReader delivers data for its first Read, which the header
// decode on the caller's goroutine consumes, then panics, so the panic
// is raised on the decoder goroutine.
type panicReader struct {
	data  []byte
	reads int
}

var errReaderPanic = errors.New("reader panicked")

func (p *panicReader) Read(b []byte) (int, error) {
	if p.reads++; p.reads > 1 {
		panic(errReaderPanic)
	}
	return copy(b, p.data), nil
}

// TestIngestReraisesReaderPanic: a panic inside the stream's Read,
// on the decoder goroutine, surfaces on the caller's goroutine, where
// a recover can catch it, instead of crashing the process.
func TestIngestReraisesReaderPanic(t *testing.T) {
	data := synthBytes(t, SynthSpec{Events: 20000, Planted: 2, Seed: 4})
	before := runtime.NumGoroutine()
	in, err := NewIngestor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := func() (p any) {
		defer func() { p = recover() }()
		in.Ingest(context.Background(), &panicReader{data: data})
		return nil
	}()
	if got != errReaderPanic {
		t.Fatalf("recovered %v, want the reader's panic", got)
	}
	settleGoroutines(t, before)
}

// TestIngestTruncatedAtBatchEdges cuts a stream inside event n for n
// around the decode batch size: every event before the cut is
// detected, and the error is the one a serial decode of the same bytes
// returns.
func TestIngestTruncatedAtBatchEdges(t *testing.T) {
	evs := decodeEvents(t, synthBytes(t, SynthSpec{Events: 3 * checkEvery, Planted: 3, Seed: 6}))
	for _, n := range []int{checkEvery - 1, checkEvery, checkEvery + 1, 2*checkEvery + 1} {
		// A streamed trace has no trailer, so the first n events'
		// encoding is a prefix of the first n+1 events'; keeping one
		// byte of event n cuts it after its opcode.
		data := encodeEvents(t, evs[:n+1])[:len(encodeEvents(t, evs[:n]))+1]

		dec, err := trace.NewDecoder(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var serial error
		for serial == nil {
			_, serial = dec.Next()
		}

		in, err := NewIngestor(Config{Collector: corpus.NewCollector("truncated")})
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.Ingest(context.Background(), bytes.NewReader(data))
		if res.Events != uint64(n) {
			t.Fatalf("cut in event %d: Ingest consumed %d events", n, res.Events)
		}
		if err == nil || err.Error() != serial.Error() {
			t.Fatalf("cut in event %d: Ingest error %v, serial decode %v", n, err, serial)
		}
		if res.Stats.Events != n {
			t.Fatalf("cut in event %d: detector saw %d events", n, res.Stats.Events)
		}
	}
}

// TestIngestUnevenChunks: a stream delivered in chunks whose lengths
// are not multiples of the batch size reports the same races, in the
// same order, and defines the same defects as one Ingest of the whole.
func TestIngestUnevenChunks(t *testing.T) {
	data := synthBytes(t, SynthSpec{Events: 30000, Planted: 12, Gap: 700, Seed: 8})
	evs := decodeEvents(t, data)

	wholeColl := corpus.NewCollector("whole")
	whole, err := NewIngestor(Config{Collector: wholeColl})
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Ingest(context.Background(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	coll := corpus.NewCollector("chunks")
	in, err := NewIngestor(Config{Collector: coll})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	var events uint64
	defects := 0
	sizes := []int{1000, 1537, 3, checkEvery + 5, 2*checkEvery - 1}
	for i, rest := 0, evs; len(rest) > 0; i++ {
		size := min(sizes[i%len(sizes)], len(rest))
		res, err := in.Ingest(context.Background(), bytes.NewReader(encodeEvents(t, rest[:size])))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, raceHashes(res.Races)...)
		events += res.Events
		defects += res.NewDefects
		rest = rest[size:]
	}
	if events != want.Events {
		t.Fatalf("chunks consumed %d events, whole stream %d", events, want.Events)
	}
	wantHashes := raceHashes(want.Races)
	if len(got) != len(wantHashes) {
		t.Fatalf("chunked ingest reported %d races, whole stream %d", len(got), len(wantHashes))
	}
	for i := range got {
		if got[i] != wantHashes[i] {
			t.Fatalf("report %d differs between chunked and whole ingest", i)
		}
	}
	if defects != want.NewDefects || coll.Defects() != wholeColl.Defects() {
		t.Fatalf("chunks defined %d defects (collector %d), whole stream %d (collector %d)",
			defects, coll.Defects(), want.NewDefects, wholeColl.Defects())
	}
}
