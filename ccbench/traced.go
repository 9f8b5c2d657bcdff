package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/checker"
	"repro/internal/computation"
	"repro/internal/enum"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/observer"
	"repro/internal/search"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/trace"
)

// The traced run replays a workload's seeded inputs in this process.
// For each op it first times the real handler untraced
// (serve.New(ccmd's default Config).Handler().ServeHTTP), then calls
// each layer's public functions in the order the handler calls them,
// one span per call. Spans stay in memory until the run ends.
//
// The deciders are called with Workers = 1 so that the engine counts
// repeat exactly; the handler timing keeps the daemon's default width.

// replayOps is the number of ops a traced replay covers: a fixed
// prefix of the workload's op sequence, so counts are exact per seed.
const replayOps = 600

// maxSpansPerOp bounds the spans of one op (a stream of up to 18
// events has two per event), so the span buffer never grows mid-op.
const maxSpansPerOp = 40

// ccmdConfig mirrors the flag defaults of cmd/ccmd.
func ccmdConfig() serve.Config {
	return serve.Config{
		CacheBytes: 64 << 20,
		Limits:     serve.Limits{DefaultTimeout: 30 * time.Second, MaxTimeout: 5 * time.Minute, MaxEnumNodes: 4},
		Stream:     serve.StreamConfig{MaxAge: 10 * time.Minute, IdleTimeout: time.Minute, Heartbeat: 5 * time.Second, Buffer: 1024},
	}
}

// fingerprint is the governance part of the cache key under ccmd's
// default limits (no budgets, default width).
const fingerprint = "budget=0,memo=0,workers=0"

// span is one timed call. parent is the index of the op's root span
// (-1 for a root).
type span struct {
	op         int64
	name       string
	parent     int
	begin, end time.Duration // since the tracer's start
}

type tracer struct {
	start time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{start: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) open(op int64, name string, parent int) int {
	t.spans = append(t.spans, span{op: op, name: name, parent: parent, begin: time.Since(t.start)})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) { t.spans[i].end = time.Since(t.start) }

// call runs fn under a span named name below root.
func (t *tracer) call(op int64, name string, root int, fn func()) {
	i := t.open(op, name, root)
	fn()
	t.close(i)
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// writeChrome writes the spans (and the handler timings, on their own
// lane) as Chrome trace_event JSON.
func (t *tracer) writeChrome(path string, handler []handlerTiming) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var evs []event
	for i, s := range t.spans {
		evs = append(evs, event{Name: s.name, Ph: "X", Ts: us(s.begin), Dur: us(s.end - s.begin), Pid: 1, Tid: 1,
			Args: map[string]any{"op": s.op, "span": i, "parent": s.parent}})
	}
	for _, h := range handler {
		evs = append(evs, event{Name: "serve.handler", Ph: "X", Ts: us(h.begin), Dur: us(h.dur), Pid: 1, Tid: 2,
			Args: map[string]any{"op": h.op}})
	}
	b, err := json.Marshal(evs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// handlerTiming is one untraced ServeHTTP call.
type handlerTiming struct {
	op         int64
	begin, dur time.Duration
}

// replayResult is the per-layer outcome of a traced replay.
type replayResult struct {
	values            map[string]float64
	attempted, failed int64
}

// layerStats accumulates the counts the spans cannot give.
type layerStats struct {
	allocs      map[string][]uint64 // metric name -> per-call allocations
	searchStats map[string][]search.Stats
	checkStates map[string][]int64
	decisions   int64
	streamOps   int64
	events      int64
	midstream   int64
}

func newLayerStats() *layerStats {
	return &layerStats{allocs: map[string][]uint64{}, searchStats: map[string][]search.Stats{}, checkStates: map[string][]int64{}}
}

// replay runs the traced replay of a serving workload.
func replay(workload string, seed int64, litmus, spansPath string) (replayResult, error) {
	srv := serve.New(ccmdConfig())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	h := srv.Handler()
	tr := newTracer(replayOps * maxSpansPerOp)
	ls := newLayerStats()
	var handler []handlerTiming
	var failed int64
	serveHTTP := func(k int64, path, contentType string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, handlerTiming{op: k, begin: t.Sub(tr.start), dur: time.Since(t)})
		return rec
	}
	fail := func(err error) {
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "ccbench: traced op: %v\n", err)
		}
	}

	switch workload {
	case "check-hot", "check-miss":
		in, err := genCheckInputs(seed, litmus)
		if err != nil {
			return replayResult{}, err
		}
		hot := workload == "check-hot"
		if hot {
			for i := range in.litmus {
				serveHTTP(-1, "/v1/check", "application/json", in.litmus[i].raw)
			}
			handler = handler[:0]
		}
		for k := int64(0); k < replayOps; k++ {
			var c *checkCase
			var body []byte
			if hot {
				c = &in.litmus[in.hotIndex(k)]
				body = c.raw
			} else {
				c, body = in.miss(k)
			}
			rec := serveHTTP(k, "/v1/check", "application/json", body)
			var resp serve.CheckResponse
			if rec.Code != http.StatusOK {
				fail(fmt.Errorf("%s: handler status %d", c.label, rec.Code))
			} else if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				fail(err)
			} else {
				fail(checkVerdicts(c, checkResults(resp)))
			}
			fail(traceCheck(tr, ls, k, c, body, hot))
		}
	case "trace-miss":
		in := genTraceInputs(seed)
		for k := int64(0); k < replayOps; k++ {
			c, streamed, body := in.op(k)
			if streamed {
				rec := serveHTTP(k, "/v1/trace", "application/x-ndjson", body)
				fail(checkStreamResponse(c, rec))
				fail(traceStream(tr, ls, k, c, body))
				continue
			}
			rec := serveHTTP(k, "/v1/verify", "application/json", body)
			var resp serve.VerifyResponse
			if rec.Code != http.StatusOK {
				fail(fmt.Errorf("%s: handler status %d", c.label, rec.Code))
			} else if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				fail(err)
			} else {
				fail(checkTraceVerdicts(c, resp.LC, resp.SC))
			}
			fail(traceVerify(tr, ls, k, c, body))
		}
	default:
		return replayResult{}, fmt.Errorf("unknown serving workload %q", workload)
	}
	if spansPath != "" {
		if err := tr.writeChrome(spansPath, handler); err != nil {
			return replayResult{}, err
		}
	}
	return replayResult{values: layerValues(tr, ls, handler), attempted: replayOps, failed: failed}, nil
}

// traceCheck replays one /v1/check op: decode, parse, canonical
// re-render, cache key, then (on a miss) every model's decision and
// the response encoding.
func traceCheck(tr *tracer, ls *layerStats, k int64, c *checkCase, body []byte, hit bool) error {
	root := tr.open(k, "op", -1)
	defer tr.close(root)
	var req serve.CheckRequest
	var err error
	tr.call(k, "serve.decode", root, func() { err = decodeStrict(body, &req) })
	if err != nil {
		return err
	}
	var named *computation.Named
	var o *observer.Observer
	a0 := mallocs()
	tr.call(k, "observer.parse", root, func() { named, o, err = observer.ParsePairString(req.Pair) })
	ls.allocs["observer.parse_allocs"] = append(ls.allocs["observer.parse_allocs"], mallocs()-a0)
	if err != nil {
		return err
	}
	var canon strings.Builder
	tr.call(k, "observer.format", root, func() { err = observer.FormatPair(&canon, named, o) })
	if err != nil {
		return err
	}
	models := memmodel.ModelNames()
	tr.call(k, "serve.key", root, func() { serve.Key("check", canon.String(), strings.Join(models, ","), fingerprint) })
	if hit {
		return nil
	}
	ds := make([]memmodel.Decision, len(models))
	got := map[string]search.Verdict{}
	for i, m := range models {
		a0 := mallocs()
		tr.call(k, "memmodel.decide."+m, root, func() {
			ds[i], err = memmodel.DecideByName(context.Background(), m, named.Comp, o, memmodel.SearchOptions{Workers: 1})
		})
		ls.allocs["memmodel.decide_allocs."+m] = append(ls.allocs["memmodel.decide_allocs."+m], mallocs()-a0)
		if err != nil {
			return err
		}
		ls.decisions++
		got[m] = ds[i].Verdict
		if m == "SC" || m == "TSO" {
			ls.searchStats[m] = append(ls.searchStats[m], ds[i].Stats)
		}
	}
	tr.call(k, "serve.encode", root, func() { _, err = json.Marshal(checkResponse(named, ds)) })
	if err != nil {
		return err
	}
	return checkVerdicts(c, got)
}

// checkResponse builds the /v1/check body the way the handler does.
func checkResponse(named *computation.Named, ds []memmodel.Decision) serve.CheckResponse {
	resp := serve.CheckResponse{Results: make([]serve.ModelResult, 0, len(ds))}
	for _, d := range ds {
		mr := serve.ModelResult{Model: d.Model, Verdict: d.Verdict}
		switch d.Model {
		case "SC", "TSO":
			mr.Stats = &serve.SearchStats{States: d.Stats.States, MemoHits: d.Stats.MemoHits, Pruned: d.Stats.Pruned, Workers: d.Stats.Workers}
			if d.Verdict.In() {
				mr.Witness = named.RenderOrder(d.Order)
			}
		case "LC":
			if d.Verdict.In() {
				for _, sort := range d.LocOrders {
					mr.LocWitnesses = append(mr.LocWitnesses, named.RenderOrder(sort))
				}
			}
		default:
			if v := d.Violation; v != nil {
				mr.Violation = fmt.Sprintf("%d: %s ≺ %s ≺ %s", v.Loc, named.RenderNode(v.U), named.RenderNode(v.V), named.RenderNode(v.W))
			}
		}
		resp.Results = append(resp.Results, mr)
	}
	return resp
}

// decodeStrict decodes a request body as the handlers do, rejecting
// unknown fields.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// traceVerify replays one /v1/verify op.
func traceVerify(tr *tracer, ls *layerStats, k int64, c *traceCase, body []byte) error {
	root := tr.open(k, "op", -1)
	defer tr.close(root)
	var req serve.VerifyRequest
	var err error
	tr.call(k, "serve.decode", root, func() { err = decodeStrict(body, &req) })
	if err != nil {
		return err
	}
	var nt *trace.NamedTrace
	tr.call(k, "trace.parse", root, func() { nt, err = trace.ParseTraceString(req.Trace) })
	if err != nil {
		return err
	}
	var canon strings.Builder
	tr.call(k, "trace.format", root, func() { err = nt.Format(&canon) })
	if err != nil {
		return err
	}
	tr.call(k, "serve.key", root, func() { serve.Key("verify", canon.String(), fingerprint) })
	opts := checker.SearchOptions{Workers: 1}
	var lcRes, scRes checker.Result
	var lcV, scV search.Verdict
	var lcSt, scSt search.Stats
	tr.call(k, "checker.verify_lc", root, func() { lcRes, lcV, lcSt = checker.VerifyLCCtx(context.Background(), nt.Trace, opts) })
	tr.call(k, "checker.verify_sc", root, func() { scRes, scV, scSt = checker.VerifySCCtx(context.Background(), nt.Trace, opts) })
	ls.checkStates["LC"] = append(ls.checkStates["LC"], lcSt.States)
	ls.checkStates["SC"] = append(ls.checkStates["SC"], scSt.States)
	lc := &serve.VerifyResult{Verdict: lcV, Text: checker.VerdictText(lcV), States: lcSt.States}
	sc := &serve.VerifyResult{Verdict: scV, Text: checker.VerdictText(scV), States: scSt.States}
	tr.call(k, "serve.encode", root, func() {
		if lcV.In() {
			lc.Witness = fmt.Sprintf("%v", lcRes.Observer)
		}
		if scV.In() {
			sc.Witness = fmt.Sprintf("%v", scRes.Observer)
		}
		_, err = json.Marshal(serve.VerifyResponse{Explainable: true, LC: lc, SC: sc, Relaxed: lcV.In() && scV.Out()})
	})
	if err != nil {
		return err
	}
	return checkTraceVerdicts(c, lc, sc)
}

// traceStream replays one /v1/trace op: parse and ingest each event,
// then finish.
func traceStream(tr *tracer, ls *layerStats, k int64, c *traceCase, body []byte) error {
	root := tr.open(k, "op", -1)
	defer tr.close(root)
	chk := stream.New(stream.Options{})
	violated := false
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var ev stream.Event
		var err error
		tr.call(k, "stream.parse_event", root, func() { ev, err = stream.ParseEvent(line) })
		if err != nil {
			return err
		}
		var v *stream.Violation
		tr.call(k, "stream.ingest", root, func() { v, err = chk.Ingest(ev) })
		if err != nil {
			return err
		}
		violated = violated || v != nil
	}
	var fin stream.Final
	tr.call(k, "stream.finish", root, func() { fin = chk.Finish(context.Background(), checker.SearchOptions{Workers: 1}) })
	ls.streamOps++
	ls.events += chk.Stats().Events
	if violated {
		ls.midstream++
	}
	lc := &serve.VerifyResult{Verdict: fin.LC, Text: checker.VerdictText(fin.LC)}
	sc := &serve.VerifyResult{Verdict: fin.SC, Text: checker.VerdictText(fin.SC)}
	return checkTraceVerdicts(c, lc, sc)
}

// checkStreamResponse checks the final record of an in-process
// /v1/trace exchange.
func checkStreamResponse(c *traceCase, rec *httptest.ResponseRecorder) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: handler status %d", c.label, rec.Code)
	}
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	for sc.Scan() {
		var r serve.StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return err
		}
		if r.Type == "final" {
			return checkTraceVerdicts(c, r.LC, r.SC)
		}
	}
	return fmt.Errorf("%s: no final record", c.label)
}

// layerValues folds spans and counts into the per-layer metrics.
func layerValues(tr *tracer, ls *layerStats, handler []handlerTiming) map[string]float64 {
	// Per op: the summed self time of each layer's spans, the covered
	// time (all child spans) and the op's own wall time.
	type opTimes struct {
		layer        map[string]time.Duration
		covered, all time.Duration
	}
	ops := map[int64]*opTimes{}
	for _, s := range tr.spans {
		o := ops[s.op]
		if o == nil {
			o = &opTimes{layer: map[string]time.Duration{}}
			ops[s.op] = o
		}
		d := s.end - s.begin
		if s.parent < 0 {
			o.all += d
			continue
		}
		o.layer[s.name] += d
		o.covered += d
	}
	perOp := func(name string) []time.Duration {
		var out []time.Duration
		for _, o := range ops {
			if d, ok := o.layer[name]; ok {
				out = append(out, d)
			}
		}
		return out
	}
	medUS := func(name string) float64 { return us(quantile(perOp(name), 0.5)) }

	v := map[string]float64{}
	var handlerSum, coveredSum, allSum time.Duration
	var hs, residual []time.Duration
	for _, h := range handler {
		o := ops[h.op]
		if o == nil {
			continue
		}
		hs = append(hs, h.dur)
		residual = append(residual, h.dur-o.covered)
		handlerSum += h.dur
		coveredSum += o.covered
		allSum += o.all
	}
	v["serve.handler_us"] = us(quantile(hs, 0.5))
	v["serve.residual_us"] = us(quantile(residual, 0.5))
	v["bench.layer_coverage"] = ratio(float64(coveredSum), float64(handlerSum))
	v["bench.tracing_overhead_pct"] = 100 * ratio(float64(allSum-handlerSum), float64(handlerSum))
	for _, name := range []string{"serve.decode", "serve.encode", "serve.key", "observer.parse", "observer.format",
		"trace.parse", "trace.format", "checker.verify_lc", "checker.verify_sc",
		"stream.parse_event", "stream.ingest", "stream.finish"} {
		v[name+"_us"] = medUS(name)
	}
	for _, m := range memmodel.ModelNames() {
		v["memmodel.decide_us."+m] = medUS("memmodel.decide." + m)
	}
	for name, xs := range ls.allocs {
		var sum uint64
		for _, x := range xs {
			sum += x
		}
		v[name] = ratio(float64(sum), float64(len(xs)))
	}
	nOps := float64(len(handler))
	v["memmodel.decisions_per_op"] = ratio(float64(ls.decisions), nOps)
	for m, sts := range ls.searchStats {
		var tot search.Stats
		for _, st := range sts {
			tot.Add(st)
		}
		n := float64(len(sts))
		v["search.states."+m] = float64(tot.States) / n
		v["search.memo_hit_ratio."+m] = ratio(float64(tot.MemoHits), float64(tot.States+tot.MemoHits))
		v["search.pruned."+m] = float64(tot.Pruned) / n
		v["search.sleep_set_pruned."+m] = float64(tot.SleepSetPruned) / n
	}
	for m, xs := range ls.checkStates {
		var sum int64
		for _, x := range xs {
			sum += x
		}
		v["checker.states."+m] = ratio(float64(sum), float64(len(xs)))
	}
	v["stream.events_per_op"] = ratio(float64(ls.events), float64(ls.streamOps))
	v["stream.midstream_violation_ratio"] = ratio(float64(ls.midstream), float64(ls.streamOps))
	return v
}

// traceLattice is the traced run of the lattice workload: per round,
// an untraced sweep (the handler analogue), the enumeration alone with
// an empty body, and a sweep with a recorder that captures the
// RunEnd event the sweep emits.
func traceLattice(d time.Duration, spansPath string) (result, error) {
	tr := newTracer(1024)
	var plain, enumT, swept []time.Duration
	var handler []handlerTiming
	var reps, skipped, orbits, pairs float64
	var attempted, failed int64
	for deadline := time.Now().Add(d); attempted == 0 || time.Now().Before(deadline); attempted++ {
		begin := time.Since(tr.start)
		_, t, err := sweep(nil)
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "ccbench:", err)
		}
		plain = append(plain, t)
		handler = append(handler, handlerTiming{op: attempted, begin: begin, dur: t})

		root := tr.open(attempted, "op", -1)
		var n int
		i := tr.open(attempted, "enum.enumerate", root)
		n = enum.EachComputationReducedUpTo(latticeNodes, latticeLocs, func(*computation.Computation, int64) bool { return true })
		tr.close(i)
		tr.close(root)
		enumT = append(enumT, tr.spans[i].end-tr.spans[i].begin)
		reps = float64(n)

		root = tr.open(attempted, "op", -1)
		var end *obs.Stats
		rec := obs.RecorderFunc(func(ev obs.Event) {
			if ev.Kind == obs.RunEnd && ev.Run == "lattice-reduced" {
				end = ev.Stats
			}
		})
		j := tr.open(attempted, "expt.sweep", root)
		rep, _, err := sweep(rec)
		tr.close(j)
		tr.close(root)
		if err != nil || end == nil {
			failed++
			fmt.Fprintln(os.Stderr, "ccbench: traced sweep:", err, "run end seen:", end != nil)
			continue
		}
		swept = append(swept, tr.spans[j].end-tr.spans[j].begin)
		skipped, orbits, pairs = float64(end.SymmetrySkipped), float64(end.Orbits), float64(rep.Pairs)
	}
	if spansPath != "" {
		if err := tr.writeChrome(spansPath, handler); err != nil {
			return result{}, err
		}
	}
	p, e, s := quantile(plain, 0.5), quantile(enumT, 0.5), quantile(swept, 0.5)
	values := map[string]float64{
		"enum.enumerate_ms":          ms(e),
		"enum.representatives":       reps,
		"dag.symmetry_skipped":       skipped,
		"dag.orbits":                 orbits,
		"expt.sweep_ms":              ms(s),
		"expt.decide_ns_per_pair":    ratio(float64(s-e), pairs),
		"bench.layer_coverage":       ratio(float64(s), float64(p)),
		"bench.tracing_overhead_pct": 100 * ratio(float64(s-p), float64(p)),
	}
	return newResult(perLayer(), values, attempted, failed, true), nil
}
