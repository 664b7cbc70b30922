package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"gorace/internal/corpus"
	"gorace/internal/report"
	"gorace/internal/stream"
)

// The HTTP surface. Routing is deliberately plain ServeMux + manual
// method/suffix dispatch so the module keeps building on go1.21
// (pattern-matching mux arrived in 1.22).
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/races", s.handleRaces)
	mux.HandleFunc("/v1/races/", s.handleRaceByKey)
	mux.HandleFunc("/v1/diff", s.handleDiff)
	mux.HandleFunc("/v1/replay/", s.handleReplay)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	mux.HandleFunc("/v1/nightly", s.handleNightly)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	if s.cluster != nil {
		mux.HandleFunc("/v1/cluster", s.handleCluster)
		mux.HandleFunc("/v1/cluster/join", s.handleClusterJoin)
		mux.HandleFunc("/v1/cluster/heartbeat", s.handleClusterBeat)
		mux.HandleFunc("/v1/replica", s.handleReplica)
	}
	if s.worker != nil {
		mux.HandleFunc("/v1/shards", s.handleShards)
	}
	return mux
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(errorBody{Error: fmt.Sprintf(format, args...)})
	w.Write(append(body, '\n'))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed, "%s requires %s", r.URL.Path, method)
		return false
	}
	return true
}

// maxJSONBody caps every JSON request body. Job specs, nightly and
// shard requests and cluster joins are a few hundred bytes; the cap
// bounds what one request can make the server buffer.
const maxJSONBody = 1 << 20

// decodeJSONBody decodes the request's JSON body into v, rejecting
// unknown fields, and reports whether it did. A body over maxJSONBody
// answers 413 and any other malformed body 400, each naming what the
// body was.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, maxJSONBody)
	default:
		writeError(w, http.StatusBadRequest, "bad %s: %v", what, err)
	}
	return false
}

// cached serves a snapshot-derived GET endpoint through the response
// cache: render computes the response value from the View exactly
// once per (generation, path, query), and every later identical
// request replays the same bytes. render must be a pure function of
// the View and the query — that purity is what the soak test's
// byte-identical assertion pins.
func (s *Server) cached(w http.ResponseWriter, r *http.Request, v *corpus.View, render func() (any, int, error)) {
	key := cacheKey(v.Generation(), r.URL.Path, r.URL.RawQuery)
	w.Header().Set("X-Corpus-Generation", strconv.FormatUint(v.Generation(), 10))
	if body, ok := s.cache.get(key); ok {
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	val, status, err := render()
	if err != nil {
		// Errors are not cached: they carry no generation-stable
		// guarantee (a bad query is cheap to re-reject anyway).
		writeError(w, status, "%s", err.Error())
		return
	}
	body, err := json.MarshalIndent(val, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	body = append(body, '\n')
	s.cache.put(key, v.Generation(), body)
	w.Header().Set("X-Cache", "miss")
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// healthResponse is the /healthz payload.
type healthResponse struct {
	Status      string `json:"status"`
	Role        string `json:"role"`
	Generation  uint64 `json:"generation"`
	Defects     int    `json:"defects"`
	Runs        int    `json:"runs"`
	QueuedJobs  int    `json:"queuedJobs"`
	RunningJobs int    `json:"runningJobs"`
	// LiveWorkers is the coordinator's live-worker count (coordinator
	// mode only).
	LiveWorkers int `json:"liveWorkers,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	v := s.View()
	resp := healthResponse{
		Status: "ok", Role: s.role(), Generation: v.Generation(),
		Defects: v.Len(), Runs: len(v.Runs()),
	}
	if s.jobs != nil {
		resp.QueuedJobs, resp.RunningJobs = s.jobs.Counts()
	}
	if s.cluster != nil {
		resp.LiveWorkers = s.cluster.reg.liveCount()
	}
	writeJSON(w, http.StatusOK, resp)
}

// runJSON is the wire form of one recorded run.
type runJSON struct {
	ID         string `json:"id"`
	Label      string `json:"label,omitempty"`
	Executions int    `json:"executions"`
	Reports    int    `json:"reports"`
}

// statsResponse is the /v1/stats payload: the corpus at a glance.
type statsResponse struct {
	Generation  uint64         `json:"generation"`
	Store       string         `json:"store"`
	Defects     int            `json:"defects"`
	Recurring   int            `json:"recurring"`
	Occurrences uint64         `json:"occurrences"`
	Executions  int            `json:"executions"`
	Reports     int            `json:"reports"`
	Categories  map[string]int `json:"categories"`
	RunHistory  []runJSON      `json:"runHistory"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	v := s.View()
	s.cached(w, r, v, func() (any, int, error) {
		resp := statsResponse{
			Generation: v.Generation(),
			Store:      v.Path(),
			Defects:    v.Len(),
			Categories: make(map[string]int),
		}
		for _, rec := range v.Records() {
			resp.Occurrences += rec.Count
			if len(rec.RunIDs) > 1 {
				resp.Recurring++
			}
			if rec.Category != "" {
				resp.Categories[string(rec.Category)]++
			}
		}
		for _, run := range v.Runs() {
			resp.Executions += run.Executions
			resp.Reports += run.Reports
			resp.RunHistory = append(resp.RunHistory, runJSON{
				ID: run.ID, Label: run.Label,
				Executions: run.Executions, Reports: run.Reports,
			})
		}
		return resp, 0, nil
	})
}

// recordJSON is the wire form of one corpus record. TracePath stays
// server-side; clients get HasTrace plus the /v1/replay endpoint.
type recordJSON struct {
	Key       string      `json:"key"`
	Unit      string      `json:"unit"`
	FirstSeen string      `json:"firstSeen"`
	LastSeen  string      `json:"lastSeen"`
	RunIDs    []string    `json:"runIds"`
	Count     uint64      `json:"count"`
	Category  string      `json:"category,omitempty"`
	Labels    []string    `json:"labels,omitempty"`
	Detector  string      `json:"detector,omitempty"`
	HasTrace  bool        `json:"hasTrace"`
	Race      report.Race `json:"race"`
}

func toRecordJSON(rec corpus.Record) recordJSON {
	out := recordJSON{
		Key: rec.Key, Unit: rec.Unit,
		FirstSeen: rec.FirstSeen(), LastSeen: rec.LastSeen(),
		RunIDs: rec.RunIDs, Count: rec.Count,
		Category: string(rec.Category), Detector: rec.Detector,
		HasTrace: rec.TracePath != "", Race: rec.Race,
	}
	for _, l := range rec.Labels {
		out.Labels = append(out.Labels, string(l))
	}
	return out
}

// racesResponse is the /v1/races payload.
type racesResponse struct {
	Generation uint64       `json:"generation"`
	Total      int          `json:"total"`
	Returned   int          `json:"returned"`
	Races      []recordJSON `json:"races"`
}

func (s *Server) handleRaces(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	v := s.View()
	s.cached(w, r, v, func() (any, int, error) {
		q := r.URL.Query()
		limit := 100
		if raw := q.Get("limit"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				return nil, http.StatusBadRequest, fmt.Errorf("limit %q is not a non-negative integer", raw)
			}
			limit = n
		}
		var recs []corpus.Record
		if q.Get("sort") == "count" {
			recs = v.Top(-1)
		} else {
			recs = v.Records()
		}
		unit, category, run := q.Get("unit"), q.Get("category"), q.Get("run")
		resp := racesResponse{Generation: v.Generation(), Races: []recordJSON{}}
		for _, rec := range recs {
			if unit != "" && rec.Unit != unit {
				continue
			}
			if category != "" && string(rec.Category) != category {
				continue
			}
			if run != "" && !rec.SeenIn(run) {
				continue
			}
			resp.Total++
			if limit == 0 || len(resp.Races) < limit {
				resp.Races = append(resp.Races, toRecordJSON(rec))
			}
		}
		resp.Returned = len(resp.Races)
		return resp, 0, nil
	})
}

// raceResponse is the /v1/races/{id} payload.
type raceResponse struct {
	Generation uint64     `json:"generation"`
	Race       recordJSON `json:"race"`
}

func (s *Server) handleRaceByKey(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/races/")
	if key == "" {
		writeError(w, http.StatusBadRequest, "missing race id (try /v1/races for the list)")
		return
	}
	v := s.View()
	s.cached(w, r, v, func() (any, int, error) {
		rec, ok := v.Get(key)
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("no defect %q at generation %d", key, v.Generation())
		}
		return raceResponse{Generation: v.Generation(), Race: toRecordJSON(rec)}, 0, nil
	})
}

// diffResponse is the /v1/diff payload.
type diffResponse struct {
	Generation uint64       `json:"generation"`
	RunA       string       `json:"runA"`
	RunB       string       `json:"runB"`
	New        []recordJSON `json:"new"`
	Resolved   []recordJSON `json:"resolved"`
	Recurring  []recordJSON `json:"recurring"`
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	v := s.View()
	s.cached(w, r, v, func() (any, int, error) {
		a, b := r.URL.Query().Get("a"), r.URL.Query().Get("b")
		if a == "" || b == "" {
			return nil, http.StatusBadRequest, fmt.Errorf("diff needs ?a=<runA>&b=<runB>")
		}
		delta, err := v.Diff(a, b)
		if err != nil {
			return nil, http.StatusNotFound, err
		}
		resp := diffResponse{
			Generation: v.Generation(), RunA: a, RunB: b,
			New: []recordJSON{}, Resolved: []recordJSON{}, Recurring: []recordJSON{},
		}
		for _, rec := range delta.New {
			resp.New = append(resp.New, toRecordJSON(rec))
		}
		for _, rec := range delta.Resolved {
			resp.Resolved = append(resp.Resolved, toRecordJSON(rec))
		}
		for _, rec := range delta.Recurring {
			resp.Recurring = append(resp.Recurring, toRecordJSON(rec))
		}
		return resp, 0, nil
	})
}

// replayResponse is the /v1/replay/{id} payload: the stored trace
// streamed through a fresh detector and re-detected post-facto, in
// memory bounded by the detector's shadow state, not the trace.
type replayResponse struct {
	Generation uint64        `json:"generation"`
	Key        string        `json:"key"`
	Detector   string        `json:"detector"`
	Events     int           `json:"events"`
	Reproduced bool          `json:"reproduced"`
	Races      []report.Race `json:"races"`
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/replay/")
	if key == "" {
		writeError(w, http.StatusBadRequest, "missing race id")
		return
	}
	v := s.View()
	s.cached(w, r, v, func() (any, int, error) {
		rec, ok := v.Get(key)
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("no defect %q at generation %d", key, v.Generation())
		}
		if rec.TracePath == "" {
			return nil, http.StatusConflict, fmt.Errorf("defect %q carries no saved trace (campaign ran without a trace dir)", key)
		}
		name := r.URL.Query().Get("detector")
		if name == "" {
			name = rec.Detector
		}
		ing, err := stream.NewIngestor(stream.Config{Detector: name})
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		f, err := os.Open(rec.TracePath)
		if err != nil {
			return nil, http.StatusInternalServerError, fmt.Errorf("open trace: %v", err)
		}
		// The request's context bounds the replay: a client that goes
		// away stops it, and errors are never cached.
		res, err := ing.Ingest(r.Context(), f)
		f.Close()
		if err != nil {
			return nil, http.StatusInternalServerError, fmt.Errorf("replay trace after %d events: %v", res.Events, err)
		}
		races := report.UniqueByHash(res.Races)
		resp := replayResponse{
			Generation: v.Generation(), Key: key, Detector: name,
			Events: int(res.Events), Races: races,
		}
		if resp.Races == nil {
			resp.Races = []report.Race{}
		}
		for _, race := range races {
			if race.Hash() == rec.Race.Hash() {
				resp.Reproduced = true
			}
		}
		return resp, 0, nil
	})
}

// submitResponse is the POST /v1/jobs payload.
type submitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// jobsResponse is the GET /v1/jobs payload.
type jobsResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, "worker node: submit jobs to the coordinator")
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, jobsResponse{Jobs: s.jobs.List()})
	case http.MethodPost:
		var spec JobSpec
		if !decodeJSONBody(w, r, &spec, "job spec") {
			return
		}
		job, err := s.jobs.Submit(spec)
		switch {
		case err == ErrQueueFull:
			// Backpressure: bounded queue, explicit retry signal —
			// never unbounded buffering.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "job queue full; retry later")
		case err == ErrDraining:
			writeError(w, http.StatusServiceUnavailable, "server is draining; no new jobs")
		case err == ErrNoWorkers:
			// Coordinator with an empty fleet: fail fast at the door
			// instead of queueing work nothing can execute.
			writeError(w, http.StatusServiceUnavailable, "no live workers joined; campaign cannot execute")
		case err != nil:
			writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		default:
			w.Header().Set("Location", "/v1/jobs/"+job.ID)
			writeJSON(w, http.StatusAccepted, submitResponse{ID: job.ID, State: StateQueued})
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "/v1/jobs accepts GET and POST")
	}
}

func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, "worker node: query jobs on the coordinator")
		return
	}
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		id, sub = rest[:i], rest[i+1:]
	}
	job, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	switch sub {
	case "":
		writeJSON(w, http.StatusOK, job.Status())
	case "results":
		s.streamResults(w, job)
	default:
		writeError(w, http.StatusNotFound, "no sub-resource %q (try /v1/jobs/%s or /v1/jobs/%s/results)", sub, id, id)
	}
}

// streamResults writes a finished job's results as JSON Lines: one
// summary line, then one line per unit estimate, then one per defect
// — a shape a client can consume incrementally however large the
// campaign was.
func (s *Server) streamResults(w http.ResponseWriter, job *Job) {
	res, ok := job.Result()
	if !ok {
		st := job.Status()
		if st.State == StateFailed {
			writeError(w, http.StatusConflict, "job %s failed: %s", job.ID, st.Error)
			return
		}
		writeError(w, http.StatusConflict, "job %s is %s; results stream once it is done", job.ID, st.State)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	type line struct {
		Type string `json:"type"`
		// exactly one of the below is set, keyed by Type
		Summary    *JobResult     `json:"summary,omitempty"`
		Unit       *JobUnitResult `json:"unit,omitempty"`
		Defect     *JobDefect     `json:"defect,omitempty"`
		Categories map[string]int `json:"categories,omitempty"`
	}
	summary := *res
	summary.UnitResults = nil
	summary.Defects = nil
	summary.Categories = nil
	enc.Encode(line{Type: "summary", Summary: &summary})
	for i := range res.UnitResults {
		enc.Encode(line{Type: "unit", Unit: &res.UnitResults[i]})
	}
	for i := range res.Defects {
		enc.Encode(line{Type: "defect", Defect: &res.Defects[i]})
	}
	enc.Encode(line{Type: "categories", Categories: res.Categories})
}

// nightlyRequest is the POST /v1/nightly body.
type nightlyRequest struct {
	// RunID names the nightly run; ids must sort chronologically.
	RunID string `json:"runId"`
	// Seed picks the night's fresh schedule seed.
	Seed int64 `json:"seed"`
}

// validateNightly checks a nightly request before any work runs: the
// run id must be non-empty. The seed is any int64.
func validateNightly(req nightlyRequest) error {
	if req.RunID == "" {
		return fmt.Errorf("service: nightly run id must not be empty")
	}
	return nil
}

// nightlyResponse is the POST /v1/nightly payload.
type nightlyResponse struct {
	Generation uint64   `json:"generation"`
	RunID      string   `json:"runId"`
	Executions int      `json:"executions"`
	Reports    int      `json:"reports"`
	Defects    int      `json:"defects"`
	FirstNight bool     `json:"firstNight"`
	PrevRun    string   `json:"prevRun,omitempty"`
	New        []string `json:"new"`
	Resolved   []string `json:"resolved"`
	Recurring  []string `json:"recurring"`
}

func (s *Server) handleNightly(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req nightlyRequest
	if !decodeJSONBody(w, r, &req, "nightly request") {
		return
	}
	if err := validateNightly(req); err != nil {
		writeError(w, http.StatusBadRequest, "%s", err.Error())
		return
	}
	n, err := s.PublishNightly(req.RunID, req.Seed)
	if err != nil {
		// Past validation, an error is the server's: a store that
		// failed to take the run answers 500.
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, errNoRepo):
			status = http.StatusBadRequest
		case errors.Is(err, ErrDraining):
			status = http.StatusServiceUnavailable
		case errors.Is(err, errRunRecorded):
			status = http.StatusConflict
		}
		writeError(w, status, "%s", err.Error())
		return
	}
	resp := nightlyResponse{
		Generation: s.View().Generation(),
		RunID:      n.RunID,
		Executions: n.Executions,
		Reports:    n.Reports,
		Defects:    n.Defects,
		FirstNight: n.FirstNight,
		PrevRun:    n.Delta.RunA,
		New:        []string{}, Resolved: []string{}, Recurring: []string{},
	}
	for _, rec := range n.Delta.New {
		resp.New = append(resp.New, rec.Key)
	}
	for _, rec := range n.Delta.Resolved {
		resp.Resolved = append(resp.Resolved, rec.Key)
	}
	for _, rec := range n.Delta.Recurring {
		resp.Recurring = append(resp.Recurring, rec.Key)
	}
	sort.Strings(resp.New)
	sort.Strings(resp.Resolved)
	sort.Strings(resp.Recurring)
	writeJSON(w, http.StatusOK, resp)
}
