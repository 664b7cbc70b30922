package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"gorace/internal/detector"
	"gorace/internal/stream"
	"gorace/internal/trace"
)

// synthStream renders a small synthetic trace stream for ingest tests.
func synthStream(t testing.TB, spec stream.SynthSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := spec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postIngest POSTs body to /v1/ingest with the given query string and
// returns the status code and decoded error-or-result body.
func postIngest(t testing.TB, url, query string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest?"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestIngestEndpoint drives the happy path end to end: a binary
// stream POSTs in, defects land in the corpus under the given run id,
// and the response reports what the detector saw.
func TestIngestEndpoint(t *testing.T) {
	store, _ := seedStore(t)
	_, ts := newTestServer(t, Config{Store: store})
	data := synthStream(t, stream.SynthSpec{Events: 30000, Planted: 4, Seed: 11})

	status, body := postIngest(t, ts.URL, "run=ingest-001&unit=svc/stream&seed=9", data)
	if status != http.StatusOK {
		t.Fatalf("ingest = %d: %s", status, body)
	}
	var res struct {
		Run        string `json:"run"`
		Detector   string `json:"detector"`
		Events     uint64 `json:"events"`
		Reports    int    `json:"reports"`
		NewDefects int    `json:"new_defects"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Run != "ingest-001" || res.Detector != "fasttrack" {
		t.Fatalf("response attribution wrong: %+v", res)
	}
	if res.Events != 30000 || res.Reports == 0 || res.NewDefects == 0 {
		t.Fatalf("stream not detected: %+v", res)
	}

	// The fold is queryable immediately.
	rstatus, rbody, _ := get(t, ts.URL+"/v1/races?unit=svc/stream&limit=0")
	if rstatus != http.StatusOK {
		t.Fatalf("races after ingest = %d", rstatus)
	}
	if !bytes.Contains(rbody, []byte("svc/stream")) {
		t.Fatalf("ingested defects not served: %s", rbody)
	}

	// Same run id again: conflict, nothing double-folded.
	status, body = postIngest(t, ts.URL, "run=ingest-001", data)
	if status != http.StatusConflict {
		t.Fatalf("duplicate run = %d: %s", status, body)
	}
}

// TestIngestEndpointValidation covers the request-shape failures: the
// method gate, the required run id, unknown detectors, and a detector
// that cannot hold a ceiling.
func TestIngestEndpointValidation(t *testing.T) {
	store, _ := seedStore(t)
	_, ts := newTestServer(t, Config{Store: store, IngestCeilingMiB: 16})
	data := synthStream(t, stream.SynthSpec{Events: 1000, Planted: 1, Seed: 1})

	resp, err := http.Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/ingest = %d, want 405", resp.StatusCode)
	}

	if status, body := postIngest(t, ts.URL, "", data); status != http.StatusBadRequest {
		t.Fatalf("missing run id = %d: %s", status, body)
	}
	if status, body := postIngest(t, ts.URL, "run=x&detector=no-such", data); status != http.StatusBadRequest {
		t.Fatalf("unknown detector = %d: %s", status, body)
	}
	if status, body := postIngest(t, ts.URL, "run=x&detector=eraser", data); status != http.StatusBadRequest {
		t.Fatalf("non-evictable detector under ceiling = %d: %s", status, body)
	}
	if status, body := postIngest(t, ts.URL, "run=x&seed=abc", data); status != http.StatusBadRequest {
		t.Fatalf("bad seed = %d: %s", status, body)
	}
	// And the ceilinged happy path runs the default detector, paged.
	status, body := postIngest(t, ts.URL, "run=ceil-001", data)
	var res struct {
		Detector string `json:"detector"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &res) != nil || res.Detector != "fasttrack" {
		t.Fatalf("ceilinged ingest = %d: %s", status, body)
	}
}

// TestIngestEndpointGarbage: hostile bytes answer 400 with the decode
// error and publish nothing.
func TestIngestEndpointGarbage(t *testing.T) {
	store, _ := seedStore(t)
	svc, ts := newTestServer(t, Config{Store: store})

	data := synthStream(t, stream.SynthSpec{Events: 5000, Planted: 1, Seed: 2})
	truncated := data[:len(data)/2]
	if status, body := postIngest(t, ts.URL, "run=bad-001", truncated); status != http.StatusBadRequest {
		t.Fatalf("truncated stream = %d: %s", status, body)
	}
	if status, body := postIngest(t, ts.URL, "run=bad-002", []byte("GRTB\xff\xff\xff\xff")); status != http.StatusBadRequest {
		t.Fatalf("hostile header = %d: %s", status, body)
	}
	for _, run := range []string{"bad-001", "bad-002"} {
		if svc.View().HasRun(run) {
			t.Fatalf("failed ingest %s landed in the corpus", run)
		}
	}
}

// TestIngestFailedKeepAlive drives one transport connection slot
// through fail, fail, success, several times over. A failed ingest
// leaves an expired read deadline on its connection, which would cancel
// the next keep-alive request's context; the failure must answer
// Connection: close so the transport never reuses that connection.
func TestIngestFailedKeepAlive(t *testing.T) {
	store, _ := seedStore(t)
	_, ts := newTestServer(t, Config{Store: store})
	data := synthStream(t, stream.SynthSpec{Events: 5000, Planted: 1, Seed: 2})
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	steps := []struct {
		name   string
		body   []byte
		status int
	}{
		{"truncated", data[:len(data)/2], http.StatusBadRequest},
		{"hostile", []byte("GRTB\xff\xff\xff\xff"), http.StatusBadRequest},
		{"good", data, http.StatusOK},
		// Bytes after a counted trace's last event are never read by
		// the decoder; the server discards a trailer under 256 KiB
		// itself and keeps the connection.
		{"counted-trailer", append(countedTrace(t, 3), make([]byte, 64<<10)...), http.StatusOK},
	}
	for round := 0; round < 10; round++ {
		for _, st := range steps {
			url := fmt.Sprintf("%s/v1/ingest?run=ka-%s-%d", ts.URL, st.name, round)
			resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(st.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != st.status {
				t.Fatalf("round %d %s = %d, want %d: %s", round, st.name, resp.StatusCode, st.status, body)
			}
			if failed := st.status != http.StatusOK; failed != resp.Close {
				t.Fatalf("round %d %s: Connection: close = %t, want %t", round, st.name, resp.Close, failed)
			}
		}
	}
}

// countedTrace saves n write events as a counted trace, the form
// Recorder.Save and racedetect -save-trace write: its header carries
// the event count, so the decoder stops after the last event.
func countedTrace(t testing.TB, n int) []byte {
	t.Helper()
	rec := &trace.Recorder{}
	for i := 0; i < n; i++ {
		rec.Events = append(rec.Events, trace.Event{Seq: uint64(i + 1), G: 1, Op: trace.OpWrite, Addr: trace.Addr(i + 1)})
	}
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestCountedTraceWithTrailer: a counted trace followed by more
// bytes than the server discards answers 200 at once with the counted
// events, and the ingest leaves nothing behind that would hold Drain.
func TestIngestCountedTraceWithTrailer(t *testing.T) {
	store, _ := seedStore(t)
	svc, ts := newTestServer(t, Config{Store: store})
	body := append(countedTrace(t, 1), make([]byte, 1<<20)...)
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/ingest?run=trailer-001", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var res struct {
		Events uint64 `json:"events"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &res) != nil || res.Events != 1 {
		t.Fatalf("counted trace + 1 MiB = %d: %s; want 200 with 1 event", resp.StatusCode, data)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain after a trailer ingest: %v", err)
	}
}

// TestIngestBackpressure: with one ingest slot occupied by a stalled
// stream, the next request answers 429 + Retry-After immediately
// instead of queueing.
func TestIngestBackpressure(t *testing.T) {
	store, _ := seedStore(t)
	svc, ts := newTestServer(t, Config{Store: store, IngestStreams: 1})
	data := synthStream(t, stream.SynthSpec{Events: 5000, Planted: 1, Seed: 3})

	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	finished := make(chan error, 1)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest?run=slow-001", pr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		finished <- err
	}()
	// Feed the header so the handler is committed, then stall.
	if _, err := pw.Write(data[:20]); err != nil {
		t.Fatal(err)
	}
	// Wait for the stalled stream to hold the slot, so the probe
	// cannot take it first.
	deadline := time.Now().Add(5 * time.Second)
	for len(svc.ingestSem) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("stalled ingest never took the slot")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v1/ingest?run=bounced-001", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Unstall: deliver the rest and let the slow ingest finish.
	if _, err := pw.Write(data[20:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-finished; err != nil {
		t.Fatalf("stalled ingest: %v", err)
	}
}

// TestIngestRejectsStalledBody: a client that stalls mid-stream still
// receives every rejection at once, with Connection: close. Without
// the close, the server would first try to drain the unread body and
// the status would never arrive.
func TestIngestRejectsStalledBody(t *testing.T) {
	cases := []struct {
		name   string
		query  string
		setup  func(t *testing.T, svc *Server)
		status int
	}{
		{"missing-run", "", nil, http.StatusBadRequest},
		{"duplicate-run", "run=run-001", nil, http.StatusConflict},
		{"bad-seed", "run=stall-001&seed=abc", nil, http.StatusBadRequest},
		{"unknown-detector", "run=stall-001&detector=no-such", nil, http.StatusBadRequest},
		{"saturated", "run=stall-001", func(t *testing.T, svc *Server) {
			svc.ingestSem <- struct{}{}
			t.Cleanup(func() { <-svc.ingestSem })
		}, http.StatusTooManyRequests},
		{"draining", "run=stall-001", func(t *testing.T, svc *Server) {
			if err := svc.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		}, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, _ := seedStore(t)
			svc, ts := newTestServer(t, Config{Store: store, IngestStreams: 1})
			if tc.setup != nil {
				tc.setup(t, svc)
			}
			pr, pw := io.Pipe()
			t.Cleanup(func() { pw.Close() })
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest?"+tc.query, pr)
			if err != nil {
				t.Fatal(err)
			}
			type result struct {
				resp *http.Response
				err  error
			}
			done := make(chan result, 1)
			go func() {
				resp, err := http.DefaultClient.Do(req)
				done <- result{resp, err}
			}()
			// Send the stream header, then stall without closing.
			if _, err := pw.Write(streamedHeader(t)); err != nil {
				t.Fatal(err)
			}
			select {
			case res := <-done:
				if res.err != nil {
					t.Fatal(res.err)
				}
				res.resp.Body.Close()
				if res.resp.StatusCode != tc.status {
					t.Fatalf("status = %d, want %d", res.resp.StatusCode, tc.status)
				}
				if !res.resp.Close {
					t.Fatal("rejection kept the connection open")
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("no response within 2s to a stalled body (want %d)", tc.status)
			}
		})
	}
}

// TestIngestChunkedTransfer: the endpoint accepts chunked bodies (an
// io.Pipe-backed request has no Content-Length), the production shape
// of a live event stream.
func TestIngestChunkedTransfer(t *testing.T) {
	store, _ := seedStore(t)
	svc, ts := newTestServer(t, Config{Store: store})
	data := synthStream(t, stream.SynthSpec{Events: 20000, Planted: 2, Seed: 4})

	pr, pw := io.Pipe()
	go func() {
		for len(data) > 0 {
			n := 4096
			if n > len(data) {
				n = len(data)
			}
			if _, err := pw.Write(data[:n]); err != nil {
				return
			}
			data = data[n:]
		}
		pw.Close()
	}()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest?run=chunked-001", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked ingest = %d: %s", resp.StatusCode, body)
	}
	if !svc.View().HasRun("chunked-001") {
		t.Fatal("chunked ingest did not land")
	}
}

// streamedHeader returns a valid streamed-mode header with no events —
// the smallest prefix that commits the decoder to binary mode.
func streamedHeader(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := trace.NewEncoder(&buf)
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fillReader yields prefix, then n copies of fill: a large request body
// that costs no memory to produce.
type fillReader struct {
	prefix []byte
	fill   byte
	n      int64
}

func (r *fillReader) Read(p []byte) (int, error) {
	if len(r.prefix) > 0 {
		k := copy(p, r.prefix)
		r.prefix = r.prefix[k:]
		return k, nil
	}
	if r.n == 0 {
		return 0, io.EOF
	}
	k := int(min(int64(len(p)), r.n))
	for i := range p[:k] {
		p[i] = r.fill
	}
	r.n -= int64(k)
	return k, nil
}

// rawPost sends body as one Content-Length POST over a fresh TCP
// connection and reads the response without waiting for the body to be
// sent, as a client would whose upload the server cuts short. It
// returns the response and the bytes allocated process-wide meanwhile.
// body is taken by value: the sender may outlive the call.
func rawPost(t *testing.T, addr, path string, body fillReader) (*http.Response, uint64) {
	t.Helper()
	size := int64(len(body.prefix)) + body.n
	chunk := make([]byte, 32<<10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n", path, addr, size)
	go func() {
		// Stops at the first write error: the server closed the
		// connection after answering.
		io.CopyBuffer(conn, &body, chunk)
	}()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	return resp, after.TotalAlloc - before.TotalAlloc
}

// TestIngestFailsClosedOnNonTraces: a body that is not a binary trace
// is refused at its header — 400, Connection: close, within 2 s, and
// under 1 MiB allocated however long the body is. The 64 MiB JSON
// string token is the body a JSON reader would buffer whole.
func TestIngestFailsClosedOnNonTraces(t *testing.T) {
	store, _ := seedStore(t)
	_, ts := newTestServer(t, Config{Store: store})
	addr := ts.Listener.Addr().String()
	cases := []struct {
		name string
		body fillReader
	}{
		{"empty", fillReader{}},
		{"brace", fillReader{prefix: []byte("{")}},
		{"json-64MiB-token", fillReader{prefix: []byte(`"`), fill: 'a', n: 64 << 20}},
		{"grt-garbage", fillReader{prefix: []byte("GRT"), fill: 0xff, n: 8 << 20}},
		{"grtb-version-99", fillReader{prefix: []byte("GRTB\x63"), fill: 0xff, n: 8 << 20}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			resp, alloc := rawPost(t, addr, fmt.Sprintf("/v1/ingest?run=closed-%d", i), tc.body)
			t.Logf("status %d after %v, %d KiB allocated", resp.StatusCode, time.Since(start), alloc>>10)
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("answered after %v, want within 2s", elapsed)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400", resp.StatusCode)
			}
			if !resp.Close {
				t.Error("rejection kept the connection open")
			}
			if alloc >= 1<<20 {
				t.Errorf("allocated %d KiB, want under 1 MiB", alloc>>10)
			}
		})
	}
}

// TestIngestRejectsWideIDs: one write whose goroutine id or
// default-mode address would size a detector's dense tables from its
// raw value is a decode error — 400 under every detector, with no
// ceiling set, allocating under 1 MiB and publishing nothing.
func TestIngestRejectsWideIDs(t *testing.T) {
	store, _ := seedStore(t)
	svc, ts := newTestServer(t, Config{Store: store})
	addr := ts.Listener.Addr().String()
	bodies := map[string]trace.Event{
		"goroutine": {Seq: 1, G: 1 << 30, Op: trace.OpWrite, Addr: 1},
		"address":   {Seq: 1, Op: trace.OpWrite, Addr: 1 << 28},
	}
	for name, ev := range bodies {
		var buf bytes.Buffer
		enc := trace.NewEncoder(&buf)
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		status, msg := postIngest(t, ts.URL, "run=wide-"+name, buf.Bytes())
		if status != http.StatusBadRequest || !strings.Contains(string(msg), "identity out of range") {
			t.Errorf("%s: status %d, body %s; want 400 naming the range", name, status, msg)
		}
		for _, det := range detector.Names() {
			run := "wide-" + name + "-" + det
			resp, alloc := rawPost(t, addr, "/v1/ingest?run="+run+"&detector="+det, fillReader{prefix: buf.Bytes()})
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s under %s: status %d, want 400", name, det, resp.StatusCode)
			}
			if alloc >= 1<<20 {
				t.Errorf("%s under %s: allocated %d KiB, want under 1 MiB", name, det, alloc>>10)
			}
			if svc.View().HasRun(run) {
				t.Errorf("%s under %s: the rejected ingest landed in the corpus", name, det)
			}
		}
	}
}
