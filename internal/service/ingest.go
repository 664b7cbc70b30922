package service

import (
	"context"
	"errors"
	"net/http"
	"os"
	"strconv"
	"time"

	"gorace/internal/corpus"
	"gorace/internal/stream"
)

// ingestResponse summarizes one ingested event stream.
type ingestResponse struct {
	Run        string `json:"run"`
	Detector   string `json:"detector"`
	Events     uint64 `json:"events"`
	Reports    int    `json:"reports"`
	NewDefects int    `json:"new_defects"`
	Evictions  int    `json:"evictions"`
	Reloads    int    `json:"reloads"`
	Generation uint64 `json:"generation"`
}

// handleIngest serves POST /v1/ingest: the request body is a binary
// trace stream (the codec cmd/racedetect records and trace.Encoder
// writes), detected online under the server's ingest configuration
// and folded into the corpus as one run. Query parameters:
//
//	run      run id to record the stream under (required, must be new)
//	unit     unit id defects are attributed to (default "stream")
//	detector registry detector name (default fasttrack; under a
//	         ceiling it must have paged shadow state)
//	seed     opaque stream id recorded as the defects' seed
//
// A body that is not a binary trace (trace.ErrNotTrace, which includes
// an empty body) or whose header is bad fails at the header: 400 with
// Connection: close, before more than the header is read.
//
// Concurrency is bounded by Config.IngestStreams: past it the server
// answers 429 + Retry-After — backpressure, not buffering. Drain
// lets in-flight ingests finish until its context expires, then
// cancels them; a cancelled ingest publishes nothing.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	// reject answers before the body is read. Unless the response
	// closes the connection, Go's server first tries to discard up to
	// 256 KB of the unread body, so a client stalled mid-stream would
	// never see its status.
	reject := func(status int, format string, args ...any) {
		w.Header().Set("Connection", "close")
		writeError(w, status, format, args...)
	}
	if s.cfg.Store == nil {
		reject(http.StatusServiceUnavailable, "worker node: ingest streams on the coordinator")
		return
	}
	if !s.inflight.begin() {
		reject(http.StatusServiceUnavailable, "server is draining; no new ingests")
		return
	}
	defer s.inflight.end()
	q := r.URL.Query()
	run := q.Get("run")
	if run == "" {
		reject(http.StatusBadRequest, "ingest requires a run id (?run=)")
		return
	}
	if s.View().HasRun(run) {
		reject(http.StatusConflict, "run id %q already recorded", run)
		return
	}
	seed := int64(0)
	if raw := q.Get("seed"); raw != "" {
		var err error
		if seed, err = strconv.ParseInt(raw, 10, 64); err != nil {
			reject(http.StatusBadRequest, "bad seed %q: %v", raw, err)
			return
		}
	}

	select {
	case s.ingestSem <- struct{}{}:
	default:
		// Backpressure: a bounded number of concurrent streams, an
		// explicit retry signal past it.
		w.Header().Set("Retry-After", "1")
		reject(http.StatusTooManyRequests, "ingest streams saturated (%d); retry later", cap(s.ingestSem))
		return
	}
	defer func() { <-s.ingestSem }()

	coll := corpus.NewCollector(run, corpus.WithRunLabel("ingest"))
	ing, err := stream.NewIngestor(stream.Config{
		Detector:      q.Get("detector"),
		MemCeilingMiB: s.cfg.IngestCeilingMiB,
		Unit:          q.Get("unit"),
		Seed:          seed,
		Collector:     coll,
	})
	if err != nil {
		reject(http.StatusBadRequest, "%v", err)
		return
	}

	// The ingest obeys both the request's own lifecycle and the
	// server-wide drain cancel. Only the decoder reads the body, and
	// Ingest joins it before returning; a decoder blocked in a stalled
	// body read is failed by expiring the connection's read deadline.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.inflight.ctx, cancel)
	defer stop()
	rc := http.NewResponseController(w)
	stopKick := context.AfterFunc(ctx, func() { rc.SetReadDeadline(time.Now()) })

	res, err := ing.Ingest(ctx, r.Body)
	// Stop the kick BEFORE the deferred cancel would fire it late.
	kicked := !stopKick()
	if kicked || err != nil {
		// An expired read deadline poisons the connection: the server's
		// background read fails on it and cancels the context of the
		// next keep-alive request. A failed ingest leaves the body
		// part-read. Close the connection after this response.
		w.Header().Set("Connection", "close")
	}
	if err != nil {
		// Classify by the error's cause, not by ctx.Err(): a decode
		// failure stays a client error even if the context ends later.
		// A body read failed by our own kick is a cancellation.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			kicked && errors.Is(err, os.ErrDeadlineExceeded) {
			writeError(w, http.StatusServiceUnavailable, "ingest cancelled after %d events: %v", res.Events, err)
			return
		}
		writeError(w, http.StatusBadRequest, "ingest failed after %d events: %v", res.Events, err)
		return
	}
	if err := s.publishCollector(coll); err != nil {
		status := http.StatusInternalServerError // the store failed to take the run
		if errors.Is(err, errRunRecorded) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Run:        run,
		Detector:   ing.DetectorName(),
		Events:     res.Events,
		Reports:    len(res.Races),
		NewDefects: res.NewDefects,
		Evictions:  res.Stats.Evictions,
		Reloads:    res.Stats.Reloads,
		Generation: s.View().Generation(),
	})
}
