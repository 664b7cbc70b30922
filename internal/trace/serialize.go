package trace

import "io"

// The paper's deployment analyzes executions post-facto: the detector
// runs over captured executions, and reports reference the source
// snapshot they came from. A Recorder's durable form is the binary
// codec (codec.go), written by Save and Encoder and read back by Load
// and Decoder.

// Load reads a trace into a fresh Recorder by delegating to the
// incremental Decoder, so even a multi-gigabyte trace file is decoded
// event by event rather than slurped into one buffer first. Callers
// that do not need the whole trace in memory should use NewDecoder
// directly.
func Load(r io.Reader) (*Recorder, error) {
	dec, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	rec := &Recorder{}
	if n, ok := dec.Count(); ok {
		rec.Events = make([]Event, 0, min(n, maxCountPrealloc))
	}
	for {
		ev, err := dec.Next()
		if err == io.EOF {
			return rec, nil
		}
		if err != nil {
			return nil, err
		}
		rec.Events = append(rec.Events, ev)
	}
}
