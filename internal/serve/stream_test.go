package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/stream"
	"repro/internal/trace"
)

// ---- helpers -------------------------------------------------------

// streamConn is one open /v1/trace exchange: write NDJSON events into
// Events, read NDJSON records off Records.
type streamConn struct {
	Events  *io.PipeWriter
	Records *bufio.Scanner
	resp    *http.Response
}

func (c *streamConn) close() {
	c.Events.Close()
	c.resp.Body.Close()
}

// openStream dials /v1/trace with a pipe-fed body so the test can
// trickle events while reading response records.
func openStream(t *testing.T, base string) *streamConn {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/trace", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("POST /v1/trace = %d: %s", resp.StatusCode, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	conn := &streamConn{Events: pw, Records: sc, resp: resp}
	t.Cleanup(conn.close)
	return conn
}

func (c *streamConn) send(t *testing.T, evs ...stream.Event) {
	t.Helper()
	if err := stream.WriteNDJSON(c.Events, evs); err != nil {
		t.Fatalf("send: %v", err)
	}
}

// next reads one response record, failing the test on EOF.
func (c *streamConn) next(t *testing.T) StreamRecord {
	t.Helper()
	for c.Records.Scan() {
		line := strings.TrimSpace(c.Records.Text())
		if line == "" {
			continue
		}
		var rec StreamRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad record %q: %v", line, err)
		}
		return rec
	}
	t.Fatalf("response stream ended early: %v", c.Records.Err())
	return StreamRecord{}
}

// collectUntilFinal reads records until the final one, returning all.
func (c *streamConn) collectUntilFinal(t *testing.T) []StreamRecord {
	t.Helper()
	var recs []StreamRecord
	for {
		rec := c.next(t)
		recs = append(recs, rec)
		if rec.Type == "final" {
			return recs
		}
	}
}

func corpusEvents(t *testing.T, name string) []stream.Event {
	t.Helper()
	nt, err := trace.ParseTraceString(readTestdata(t, name))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := stream.EventsFromTrace(nt)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// ---- tests ---------------------------------------------------------

// TestTraceStreamViolationBeforeEnd pins the tentpole property: a
// violating trace's verdict reaches the client before the end event is
// even sent.
func TestTraceStreamViolationBeforeEnd(t *testing.T) {
	_, ts := testServer(t, Config{Stream: StreamConfig{CheckEvery: 1}})
	conn := openStream(t, ts.URL)

	evs := corpusEvents(t, "corr_violation.trace")
	conn.send(t, evs[:len(evs)-1]...) // everything but the end event
	rec := conn.next(t)
	if rec.Type != "violation" || rec.Violation == nil {
		t.Fatalf("first record = %+v, want a violation", rec)
	}
	if got := rec.Violation.Kind; got != "taint" {
		t.Fatalf("violation kind = %q, want taint", got)
	}
	if len(rec.Violation.Models) != 2 {
		t.Fatalf("taint should exclude both models, got %v", rec.Violation.Models)
	}

	conn.send(t, evs[len(evs)-1]) // now the end event
	recs := conn.collectUntilFinal(t)
	final := recs[len(recs)-1]
	if final.LC == nil || final.SC == nil {
		t.Fatalf("final record missing verdicts: %+v", final)
	}
	if final.LC.Text != "VIOLATED" || final.SC.Text != "VIOLATED" {
		t.Fatalf("final = LC:%s SC:%s, want VIOLATED/VIOLATED", final.LC.Text, final.SC.Text)
	}
	if final.Stats == nil || !final.Stats.Ended {
		t.Fatalf("final stats should mark the stream ended: %+v", final.Stats)
	}
}

// TestTraceStreamSlowWriter is the transport-timeout bugfix test: the
// daemon's http.Server read/write/idle timeouts are set far below the
// stream's life, the exchange Timeout middleware is armed, and a slow
// writer still completes — the per-route deadline overrides and the
// TimeoutExcept exemption keep the connection governed by streaming
// limits only. Run under -race in CI, which also exercises the
// reader/checker goroutine split.
func TestTraceStreamSlowWriter(t *testing.T) {
	s := New(Config{
		RequestTimeout: 200 * time.Millisecond, // would kill the stream if applied
		Stream: StreamConfig{
			CheckEvery:  1,
			IdleTimeout: 5 * time.Second,
			Heartbeat:   50 * time.Millisecond,
		},
	})
	ts := httptest.NewUnstartedServer(s.Handler())
	// The transport constants ccmd sets (scaled down): each alone is
	// shorter than the stream's total life.
	ts.Config.ReadTimeout = 150 * time.Millisecond
	ts.Config.WriteTimeout = 150 * time.Millisecond
	ts.Config.IdleTimeout = 150 * time.Millisecond
	ts.Start()
	t.Cleanup(ts.Close)

	conn := openStream(t, ts.URL)
	evs := corpusEvents(t, "dekker_bottom.trace")

	// Trickle every event slower than the transport timeouts; total
	// stream life ~> 4x ReadTimeout.
	violations := 0
	heartbeats := 0
	recDone := make(chan struct{})
	go func() {
		defer close(recDone)
		for {
			var rec StreamRecord
			line, err := readLine(conn.Records)
			if err != nil {
				return
			}
			if json.Unmarshal([]byte(line), &rec) != nil {
				return
			}
			switch rec.Type {
			case "violation":
				violations++
			case "heartbeat":
				heartbeats++
			case "final":
				if rec.SC == nil || rec.SC.Text != "VIOLATED" {
					t.Errorf("final SC = %+v, want VIOLATED", rec.SC)
				}
				if rec.LC == nil || rec.LC.Text != "explainable" {
					t.Errorf("final LC = %+v, want explainable", rec.LC)
				}
				return
			}
		}
	}()
	for _, ev := range evs {
		conn.send(t, ev)
		time.Sleep(100 * time.Millisecond)
	}
	select {
	case <-recDone:
	case <-time.After(10 * time.Second):
		t.Fatal("no final record after the end event")
	}
	if violations == 0 {
		t.Error("no mid-stream violation record (dekker_bottom is SC-violated by cycle)")
	}
	if heartbeats == 0 {
		t.Error("no heartbeat records during a ~700ms stream at 50ms cadence")
	}
}

// readLine is a scanner step that reports EOF as an error instead of
// calling t.Fatal from a non-test goroutine.
func readLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			return line, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.EOF
}

// TestTraceStreamConformance compares the streamed final verdicts
// against the post-mortem checker for every corpus trace — the service
// edition of the differential guarantee pinned in internal/stream.
func TestTraceStreamConformance(t *testing.T) {
	_, ts := testServer(t, Config{Stream: StreamConfig{CheckEvery: 1}})
	paths, err := filepath.Glob("../../testdata/*.trace")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus traces: %v", err)
	}
	for _, p := range paths {
		name := filepath.Base(p)
		t.Run(name, func(t *testing.T) {
			nt, err := trace.ParseTraceString(readTestdata(t, name))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			_, lcWant, _ := checker.VerifyLCCtx(ctx, nt.Trace, checker.SearchOptions{})
			_, scWant, _ := checker.VerifySCCtx(ctx, nt.Trace, checker.SearchOptions{})

			conn := openStream(t, ts.URL)
			conn.send(t, corpusEvents(t, name)...)
			recs := conn.collectUntilFinal(t)
			final := recs[len(recs)-1]
			if got, want := final.LC.Text, checker.VerdictText(lcWant); got != want {
				t.Errorf("LC: stream %q, post-mortem %q", got, want)
			}
			if got, want := final.SC.Text, checker.VerdictText(scWant); got != want {
				t.Errorf("SC: stream %q, post-mortem %q", got, want)
			}
			for _, rec := range recs[:len(recs)-1] {
				if rec.Type != "violation" {
					continue
				}
				for _, m := range rec.Violation.Models {
					if m == "LC" && !lcWant.Out() {
						t.Errorf("unsound online LC violation %+v", rec.Violation)
					}
					if m == "SC" && !scWant.Out() {
						t.Errorf("unsound online SC violation %+v", rec.Violation)
					}
				}
			}
		})
	}
}

// TestTraceStreamIdleCut: a client that stalls mid-stream is cut by
// the rolling idle deadline and still gets a well-formed early final.
func TestTraceStreamIdleCut(t *testing.T) {
	_, ts := testServer(t, Config{Stream: StreamConfig{
		IdleTimeout: 100 * time.Millisecond,
		Heartbeat:   time.Hour, // keep the response quiet
	}})
	conn := openStream(t, ts.URL)
	evs := corpusEvents(t, "mp_stale.trace")
	conn.send(t, evs[0], evs[1]) // locs + first node, then stall

	recs := conn.collectUntilFinal(t)
	final := recs[len(recs)-1]
	if final.LC.Text != "INCONCLUSIVE(deadline)" || final.SC.Text != "INCONCLUSIVE(deadline)" {
		t.Fatalf("idle-cut final = LC:%s SC:%s, want INCONCLUSIVE(deadline)", final.LC.Text, final.SC.Text)
	}
	var sawError bool
	for _, rec := range recs {
		sawError = sawError || rec.Type == "error"
	}
	if !sawError {
		t.Fatal("idle cut should surface an error record before the final")
	}
}

// TestTraceStreamOverrun: past MaxEvents the overflow policy sheds and
// both models degrade to the typed INCONCLUSIVE(overrun).
func TestTraceStreamOverrun(t *testing.T) {
	_, ts := testServer(t, Config{Stream: StreamConfig{MaxEvents: 2, CheckEvery: 1}})
	conn := openStream(t, ts.URL)
	conn.send(t, corpusEvents(t, "mp_stale.trace")...)

	recs := conn.collectUntilFinal(t)
	final := recs[len(recs)-1]
	if final.LC.Text != "INCONCLUSIVE(overrun)" || final.SC.Text != "INCONCLUSIVE(overrun)" {
		t.Fatalf("overrun final = LC:%s SC:%s, want INCONCLUSIVE(overrun)", final.LC.Text, final.SC.Text)
	}
	if final.Stats == nil || !final.Stats.Overrun || final.Stats.Shed == 0 {
		t.Fatalf("overrun stats = %+v, want Overrun with shed > 0", final.Stats)
	}
}

// TestTraceStreamProtocolError: a malformed event fails the stream
// in-band with an error record and an inconclusive final.
func TestTraceStreamProtocolError(t *testing.T) {
	_, ts := testServer(t, Config{})
	conn := openStream(t, ts.URL)
	evs := corpusEvents(t, "mp_stale.trace")
	conn.send(t, evs[0], evs[1], evs[1]) // duplicate node: protocol violation

	recs := conn.collectUntilFinal(t)
	if recs[0].Type != "error" || !strings.Contains(recs[0].Error, "duplicate") {
		t.Fatalf("first record = %+v, want a duplicate-node error", recs[0])
	}
	final := recs[len(recs)-1]
	if final.LC.Text != "INCONCLUSIVE(cancelled)" || final.SC.Text != "INCONCLUSIVE(cancelled)" {
		t.Fatalf("error final = LC:%s SC:%s, want INCONCLUSIVE(cancelled)", final.LC.Text, final.SC.Text)
	}
}

// TestTraceStreamStatsz: the stream gauges land in /statsz and the
// per-endpoint metrics row exists.
func TestTraceStreamStatsz(t *testing.T) {
	_, ts := testServer(t, Config{Stream: StreamConfig{CheckEvery: 1}})
	conn := openStream(t, ts.URL)
	conn.send(t, corpusEvents(t, "corr_violation.trace")...)
	conn.collectUntilFinal(t)

	doc := statsz(t, ts.URL)
	if doc.Stream.Done != 1 {
		t.Fatalf("stream.done = %d, want 1", doc.Stream.Done)
	}
	if doc.Stream.EventsIngested == 0 || doc.Stream.Violations == 0 {
		t.Fatalf("stream gauges empty: %+v", doc.Stream)
	}
	if _, ok := doc.Endpoints["trace"]; !ok {
		t.Fatal("no trace endpoint metrics row")
	}
}

// TestTraceStreamGaugesSettledAtFinal: the gauges that count a stream
// as running — the stream block's active count and the trace
// endpoint's in-flight count — are settled before the final record is
// written, so a client that has read the final record never finds its
// own stream still running on /statsz.
func TestTraceStreamGaugesSettledAtFinal(t *testing.T) {
	_, ts := testServer(t, Config{Stream: StreamConfig{CheckEvery: 1}})
	conn := openStream(t, ts.URL)
	conn.send(t, corpusEvents(t, "mp_stale.trace")...)
	conn.collectUntilFinal(t)

	doc := statsz(t, ts.URL)
	if doc.Stream.Active != 0 || doc.Stream.Done != 1 {
		t.Fatalf("stream active/done = %d/%d after the final record, want 0/1", doc.Stream.Active, doc.Stream.Done)
	}
	ep := doc.Endpoints["trace"]
	if ep.Requests != 1 || ep.InFlight != 0 {
		t.Fatalf("trace endpoint requests/in_flight = %d/%d after the final record, want 1/0", ep.Requests, ep.InFlight)
	}
}

// TestTraceStreamDrainRejects: a draining server sheds new streams
// with 503 like any other decision.
func TestTraceStreamDrainRejects(t *testing.T) {
	s, ts := testServer(t, Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/trace", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST /v1/trace = %d, want 503", resp.StatusCode)
	}
}

// TestTraceStreamKeepAlive: /v1/trace exchanges must leave their
// connection reusable. Several streams and then a /v1/check travel on
// one keep-alive connection to a server with the daemon's transport
// timeouts, and every response must be a 200.
func TestTraceStreamKeepAlive(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ReadHeaderTimeout = 10 * time.Second
	ts.Config.ReadTimeout = time.Minute
	ts.Config.IdleTimeout = 2 * time.Minute
	ts.Start()
	t.Cleanup(ts.Close)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	roundTrip := func(path, contentType string, body []byte) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		if err := req.Write(conn); err != nil {
			t.Fatalf("POST %s: write: %v", path, err)
		}
		resp, err := http.ReadResponse(br, req)
		if err != nil {
			t.Fatalf("POST %s: read: %v", path, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("POST %s: body: %v", path, err)
		}
		if resp.Close {
			t.Fatalf("POST %s: server closed the keep-alive connection", path)
		}
		return resp.StatusCode, string(data)
	}

	var events bytes.Buffer
	if err := stream.WriteNDJSON(&events, corpusEvents(t, "mp_stale.trace")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		code, body := roundTrip("/v1/trace", "application/x-ndjson", events.Bytes())
		if code != http.StatusOK || !strings.Contains(body, `"type":"final"`) {
			t.Fatalf("stream %d on the shared connection: %d %s", i+1, code, body)
		}
	}
	check, err := json.Marshal(CheckRequest{Pair: readTestdata(t, "dekker.ccm")})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := roundTrip("/v1/check", "application/json", check); code != http.StatusOK {
		t.Fatalf("/v1/check after the streams: %d %s", code, body)
	}
}

// TestTraceStreamHeldBodyBounded: a client that sends the end event and
// then holds its chunked body open must not pin the connection past
// the stream's age cap. The handler answers in full; the server's
// post-handler drain of the unfinished body then fails at the cutoff,
// and the connection, idle from then on, is dropped at the server's
// idle timeout.
func TestTraceStreamHeldBodyBounded(t *testing.T) {
	const maxAge, idle = time.Second, time.Second
	s := New(Config{Stream: StreamConfig{MaxAge: maxAge}})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ReadHeaderTimeout = 10 * time.Second
	ts.Config.ReadTimeout = time.Minute
	ts.Config.IdleTimeout = idle
	ts.Start()
	t.Cleanup(ts.Close)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var events bytes.Buffer
	if err := stream.WriteNDJSON(&events, corpusEvents(t, "mp_stale.trace")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// One chunk carrying every event up to and including the end
	// event, and no terminating chunk: the body stays open.
	if _, err := fmt.Fprintf(conn, "POST /v1/trace HTTP/1.1\r\nHost: ccmd\r\n"+
		"Content-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n"+
		"%x\r\n%s\r\n", events.Len(), events.Bytes()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"type":"final"`) {
		t.Fatalf("stream with a held body: %d %v %s", resp.StatusCode, err, body)
	}

	bound := maxAge + idle + 5*time.Second
	conn.SetReadDeadline(start.Add(bound))
	n, err := br.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after the request: the held body pins it", bound)
	}
	if err == nil {
		t.Fatalf("server sent %d unexpected bytes after the response", n)
	}
}
