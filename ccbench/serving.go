package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memmodel"
	"repro/internal/search"
	"repro/internal/serve"
)

// clients is the closed loop's connection count: ccmd's callers (CLI
// scripts, fleetctl) each wait for their reply before sending again.
const clients = 2

// setupRepeats is how many fresh daemons a serving run starts to
// measure setup_s; the run reports their median and times the last.
const setupRepeats = 9

// servingLoad is one workload driven against a live daemon.
type servingLoad struct {
	// endpoints are the /statsz endpoint names the workload uses.
	endpoints []string
	// warm is the untimed warm-up after /healthz (part of setup_s).
	warm func(cl *http.Client, base string) error
	// op runs op k and returns its latency.
	op func(cl *http.Client, base string, k int64) (time.Duration, error)
	// traffic verifies the /statsz deltas of the timed run.
	traffic func(before, after serve.Statsz, ops int64) error
	// clientProcs caps the benchmark's Ps during the timed loop (0 =
	// all CPUs). A /v1/check client almost only compares each answer
	// with one already checked (see checkedAnswers), so the two share
	// one P and leave the daemon both CPUs; with a P each they
	// oversubscribe the box and the tail latency follows the
	// scheduler. trace-miss decodes each stream's records as they
	// arrive, and on one P that work would delay the other client's
	// response read. README.md has the measurements.
	clientProcs int
	// streamed counts timed ops sent to /v1/trace.
	streamed atomic.Int64
}

// checkedAnswers remembers, for each base input, an answer that passed
// its full check, with the op's tag taken out of its node names. An
// answer equal to it once its own tag is taken out carries the same
// verdicts, so it passes without being decoded; any other answer is
// decoded and checked in full. The clients' work per op stays small,
// which leaves the CPUs to the daemon: decoding every /v1/check answer
// took about a third of the clients' CPU time.
type checkedAnswers struct{ m sync.Map }

// check checks data, the answer to the op tagged tag (empty: the body
// was sent untagged) whose base input is base; full is the full check.
func (a *checkedAnswers) check(base any, tag string, data []byte, full func([]byte) error) error {
	norm := data
	if tag != "" {
		norm = bytes.ReplaceAll(data, []byte(string(tagSep)+tag), nil)
	}
	if v, ok := a.m.Load(base); ok && bytes.Equal(v.([]byte), norm) {
		return nil
	}
	if err := full(data); err != nil {
		return err
	}
	a.m.LoadOrStore(base, norm)
	return nil
}

// newServingLoad assembles the inputs and checks of a serving workload.
func newServingLoad(workload string, seed int64, litmusDir string) (*servingLoad, error) {
	switch workload {
	case "check-hot", "check-miss":
		in, err := genCheckInputs(seed, litmusDir)
		if err != nil {
			return nil, err
		}
		l := &servingLoad{endpoints: []string{"check"}, clientProcs: 1}
		answers := &checkedAnswers{}
		// postCheck sends one /v1/check body for c, tagged tag.
		postCheck := func(cl *http.Client, base string, c *checkCase, tag string, body []byte) (time.Duration, error) {
			lat, data, err := post(cl, base+"/v1/check", body)
			if err != nil {
				return lat, fmt.Errorf("%s: %w", c.label, err)
			}
			return lat, answers.check(c, tag, data, func(data []byte) error { return checkCheckResponse(c, data) })
		}
		if workload == "check-hot" {
			// The fixtures are sent untagged, as the files read, so every
			// timed op hits the answer the warm-up cached and checked.
			l.warm = func(cl *http.Client, base string) error {
				for i := range in.litmus {
					c := &in.litmus[i]
					if _, err := postCheck(cl, base, c, "", c.raw); err != nil {
						return err
					}
				}
				return nil
			}
			l.op = func(cl *http.Client, base string, k int64) (time.Duration, error) {
				c := &in.litmus[in.hotIndex(k)]
				return postCheck(cl, base, c, "", c.raw)
			}
			l.traffic = func(before, after serve.Statsz, ops int64) error {
				hits := after.Cache.Hits - before.Cache.Hits
				all := hits + after.Cache.Misses - before.Cache.Misses + after.Cache.Shared - before.Cache.Shared
				if r := ratio(float64(hits), float64(all)); r < 0.99 {
					return fmt.Errorf("check-hot: cache hit ratio %.4f < 0.99 (%d of %d)", r, hits, all)
				}
				return nil
			}
			return l, nil
		}
		l.op = func(cl *http.Client, base string, k int64) (time.Duration, error) {
			c, body := in.miss(k)
			return postCheck(cl, base, c, opTag(k), body)
		}
		l.traffic = func(before, after serve.Statsz, ops int64) error {
			misses := after.Cache.Misses - before.Cache.Misses
			var decisions int64
			for m, n := range after.Decisions {
				decisions += n - before.Decisions[m]
			}
			if misses != ops {
				return fmt.Errorf("check-miss: %d cache misses for %d ops", misses, ops)
			}
			if want := int64(len(memmodel.ModelNames())) * misses; decisions != want {
				return fmt.Errorf("check-miss: %d decisions for %d misses, want %d", decisions, misses, want)
			}
			return nil
		}
		return l, nil
	case "trace-miss":
		in := genTraceInputs(seed)
		l := &servingLoad{endpoints: []string{"verify", "trace"}}
		answers := &checkedAnswers{}
		l.op = func(cl *http.Client, base string, k int64) (time.Duration, error) {
			c, streamed, body := in.op(k)
			if streamed {
				l.streamed.Add(1)
				return postStream(cl, base, body, c)
			}
			lat, data, err := post(cl, base+"/v1/verify", body)
			if err != nil {
				return lat, fmt.Errorf("%s: %w", c.label, err)
			}
			return lat, answers.check(c, opTag(k), data, func(data []byte) error { return checkVerifyResponse(c, data) })
		}
		l.traffic = func(before, after serve.Statsz, ops int64) error {
			if hits := after.Cache.Hits - before.Cache.Hits; hits != 0 {
				return fmt.Errorf("trace-miss: %d cache hits, want 0", hits)
			}
			if done, want := after.Stream.Done-before.Stream.Done, l.streamed.Load(); done != want {
				return fmt.Errorf("trace-miss: stream.done advanced %d for %d streamed ops", done, want)
			}
			return nil
		}
		return l, nil
	}
	return nil, fmt.Errorf("unknown serving workload %q", workload)
}

// checkVerdicts compares one /v1/check answer with the known answer
// and with the paper's inclusions: SC ⊆ every model, and
// LC ⊆ NN ⊆ NW, WN ⊆ WW.
func checkVerdicts(c *checkCase, got map[string]search.Verdict) error {
	in := map[string]bool{}
	for _, m := range memmodel.ModelNames() {
		v, ok := got[m]
		switch {
		case !ok:
			return fmt.Errorf("%s: no %s verdict", c.label, m)
		case !v.Decided:
			return fmt.Errorf("%s: %s undecided (%s)", c.label, m, v)
		}
		in[m] = v.Member
		if want, ok := c.want[m]; ok && want != v.Member {
			return fmt.Errorf("%s: %s = %s, want IN=%v", c.label, m, v, want)
		}
	}
	implies := [][2]string{{"LC", "NN"}, {"NN", "NW"}, {"NN", "WN"}, {"NW", "WW"}, {"WN", "WW"}}
	for _, m := range memmodel.ModelNames() {
		implies = append(implies, [2]string{"SC", m})
	}
	for _, e := range implies {
		if in[e[0]] && !in[e[1]] {
			return fmt.Errorf("%s: IN %s but OUT of %s, which includes it", c.label, e[0], e[1])
		}
	}
	return nil
}

// checkResults indexes a CheckResponse by model.
func checkResults(resp serve.CheckResponse) map[string]search.Verdict {
	got := map[string]search.Verdict{}
	for _, r := range resp.Results {
		got[r.Model] = r.Verdict
	}
	return got
}

// checkTraceVerdicts compares LC/SC results with a trace's known answer.
func checkTraceVerdicts(c *traceCase, lc, sc *serve.VerifyResult) error {
	if lc == nil || sc == nil {
		return fmt.Errorf("%s: missing LC or SC result", c.label)
	}
	if !lc.Verdict.Decided || !sc.Verdict.Decided || lc.Verdict.Member != c.lc || sc.Verdict.Member != c.sc {
		return fmt.Errorf("%s: LC=%s SC=%s, want explainable LC=%v SC=%v", c.label, lc.Text, sc.Text, c.lc, c.sc)
	}
	return nil
}

// post sends one JSON exchange and returns its latency and body.
func post(cl *http.Client, url string, body []byte) (time.Duration, []byte, error) {
	t := time.Now()
	resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return time.Since(t), nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return lat, data, err
}

// checkCheckResponse decodes a /v1/check answer and checks its verdicts.
func checkCheckResponse(c *checkCase, data []byte) error {
	var resp serve.CheckResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("%s: decode: %w", c.label, err)
	}
	return checkVerdicts(c, checkResults(resp))
}

// checkVerifyResponse decodes a /v1/verify answer and checks its verdicts.
func checkVerifyResponse(c *traceCase, data []byte) error {
	var resp serve.VerifyResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("%s: decode: %w", c.label, err)
	}
	if !resp.Explainable {
		return fmt.Errorf("%s: reported unexplainable", c.label)
	}
	return checkTraceVerdicts(c, resp.LC, resp.SC)
}

// postStream sends a whole NDJSON trace to /v1/trace; the op ends when
// the final record has been read.
func postStream(cl *http.Client, base string, body []byte, c *traceCase) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/trace", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	// Each stream gets a connection of its own: ccmd fails the next
	// request on a keep-alive connection that carried a /v1/trace
	// stream (503 "context canceled"; see README.md).
	req.Close = true
	t := time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		return time.Since(t), fmt.Errorf("%s: %w", c.label, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return time.Since(t), fmt.Errorf("%s: %s: %s", c.label, resp.Status, bytes.TrimSpace(data))
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec serve.StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return time.Since(t), fmt.Errorf("%s: decode record: %w", c.label, err)
		}
		switch rec.Type {
		case "final":
			lat := time.Since(t)
			io.Copy(io.Discard, resp.Body)
			return lat, checkTraceVerdicts(c, rec.LC, rec.SC)
		case "error":
			return time.Since(t), fmt.Errorf("%s: stream error: %s", c.label, rec.Error)
		}
	}
	return time.Since(t), fmt.Errorf("%s: stream ended without a final record (%v)", c.label, sc.Err())
}

// window is the length of the slices a timed run is cut into. The
// reported timings are taken over the ops of the calmest windows (see
// calmest), which keeps the other tenants of the machine out of the
// result as far as the machine lets us see them.
const window = time.Second

// sample is one completed op.
type sample struct {
	end, lat time.Duration // end is measured from the start of the loop
}

// mark is a reading taken at a window boundary.
type mark struct {
	cpu  time.Duration // the daemon's CPU time
	host hostTicks
}

// loopStats is the outcome of a closed-loop run.
type loopStats struct {
	samples   []sample
	marks     []mark // at the start and at the end of every window
	attempted int64
	failed    int64
}

// closedLoop runs op from `clients` goroutines, each on its own
// keep-alive connection, starting no op after d. Op indices are drawn
// from one counter, so the inputs sent depend only on the seed and the
// number of ops, not on which client sends them. pid's CPU time and
// the machine's steal are read at every window boundary. procs > 0
// caps the benchmark process's Ps for the duration of the loop.
func closedLoop(base string, d time.Duration, pid, procs int, op func(cl *http.Client, base string, k int64) (time.Duration, error), errs *errorLog) (loopStats, error) {
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	var next, failed atomic.Int64
	samples := make([][]sample, clients)
	read := func() (mark, error) {
		c, err := procCPU(pid)
		if err != nil {
			return mark{}, err
		}
		h, err := readHostTicks()
		return mark{cpu: c, host: h}, err
	}
	m0, err := read()
	if err != nil {
		return loopStats{}, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			cl := &http.Client{Transport: tr, Timeout: time.Minute}
			for time.Since(start) < d {
				k := next.Add(1) - 1
				lat, err := op(cl, base, k)
				samples[i] = append(samples[i], sample{end: time.Since(start), lat: lat})
				if err != nil {
					failed.Add(1)
					errs.add(err)
				}
			}
		}(i)
	}
	st := loopStats{marks: []mark{m0}}
	for w := 1; time.Duration(w)*window <= d; w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * window)))
		m, err := read()
		if err != nil {
			wg.Wait()
			return loopStats{}, err
		}
		st.marks = append(st.marks, m)
	}
	wg.Wait()
	st.attempted, st.failed = next.Load(), failed.Load()
	for _, s := range samples {
		st.samples = append(st.samples, s...)
	}
	return st, nil
}

// windowValues derives the timed metrics from a closed loop, over the
// ops that ended in the calmest windows: their count per second, the
// p50 and p99 of their latencies, and the daemon's CPU time per op.
func (st loopStats) windowValues() map[string]float64 {
	n := len(st.marks) - 1
	lats := make([][]time.Duration, n)
	for _, s := range st.samples {
		if w := int(s.end / window); w < n {
			lats[w] = append(lats[w], s.lat)
		}
	}
	steal := make([]float64, n)
	for w := range steal {
		steal[w] = st.marks[w+1].host.stealSince(st.marks[w].host)
	}
	var ops []time.Duration
	var cpu time.Duration
	chosen := calmest(steal)
	for _, w := range chosen {
		ops = append(ops, lats[w]...)
		cpu += st.marks[w+1].cpu - st.marks[w].cpu
	}
	return map[string]float64{
		"throughput_ops_s": float64(len(ops)) / secs(time.Duration(len(chosen))*window),
		"latency_p50_ms":   ms(quantile(ops, 0.50)),
		"latency_p99_ms":   ms(quantile(ops, 0.99)),
		"cpu_ms_per_op":    ratio(ms(cpu), float64(len(ops))),
	}
}

// errorLog keeps the first few failure messages for stderr.
type errorLog struct {
	mu   sync.Mutex
	msgs []string
	n    int
}

func (e *errorLog) add(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
	if len(e.msgs) < 10 {
		e.msgs = append(e.msgs, err.Error())
	}
}

func (e *errorLog) dump(w io.Writer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range e.msgs {
		fmt.Fprintf(w, "ccbench: failed op: %s\n", m)
	}
	if e.n > len(e.msgs) {
		fmt.Fprintf(w, "ccbench: ... %d failed ops in all\n", e.n)
	}
}

// servingRun is one timed run against a fresh daemon.
type servingRun struct {
	loop          loopStats
	setup         time.Duration // median over setupRepeats daemons
	peakRSS       float64       // daemon VmHWM, MiB
	before, after serve.Statsz
	trafficErr    error
}

// runServing measures a serving workload: set-up on setupRepeats fresh
// daemons, then a closed loop for d against the last one, with /statsz
// deltas taken after the load stops.
func runServing(l *servingLoad, bin string, d time.Duration, errs *errorLog) (*servingRun, error) {
	var setups []time.Duration
	var dmn *daemon
	for i := 0; i < setupRepeats; i++ {
		cand, ready, err := startDaemon(bin)
		if err != nil {
			return nil, err
		}
		if l.warm != nil {
			t := time.Now()
			if err := l.warm(cand.client, cand.base); err != nil {
				cand.stop()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			ready += time.Since(t)
		}
		setups = append(setups, ready)
		if i < setupRepeats-1 {
			if err := cand.stop(); err != nil {
				return nil, err
			}
			continue
		}
		dmn = cand
	}
	run, err := timeDaemon(l, dmn, d, errs)
	if stopErr := dmn.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	run.setup = quantile(setups, 0.5)
	return run, nil
}

func timeDaemon(l *servingLoad, dmn *daemon, d time.Duration, errs *errorLog) (*servingRun, error) {
	pid := dmn.cmd.Process.Pid
	run := &servingRun{}
	var err error
	if run.before, err = dmn.statsz(); err != nil {
		return nil, err
	}
	if run.loop, err = closedLoop(dmn.base, d, pid, l.clientProcs, l.op, errs); err != nil {
		return nil, err
	}
	m := run.loop.marks
	reportSteal(os.Stderr, m[len(m)-1].host.stealSince(m[0].host))
	if run.peakRSS, err = peakRSS(pid); err != nil {
		return nil, err
	}
	// A stream's done counter may tick just after its final record is
	// read, so the traffic check retries briefly before it fails.
	for wait := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if run.after, err = dmn.statsz(); err != nil {
			return nil, err
		}
		run.trafficErr = l.traffic(run.before, run.after, run.loop.attempted)
		if run.trafficErr == nil || time.Now().After(wait) {
			break
		}
	}
	return run, nil
}

// endToEndValues derives the end-to-end metrics of a serving run.
func (r *servingRun) endToEndValues() map[string]float64 {
	n := float64(r.loop.attempted)
	v := r.loop.windowValues()
	v["setup_s"] = secs(r.setup)
	v["peak_rss_mb"] = r.peakRSS
	v["success_rate"] = (n - float64(r.loop.failed)) / n
	return v
}

// serveValues derives the serve-layer metrics that come from the
// daemon's own /statsz deltas over the timed run.
func (r *servingRun) serveValues(endpoints []string) map[string]float64 {
	var reqs, latMS, shed int64
	for _, e := range endpoints {
		a, b := r.after.Endpoints[e], r.before.Endpoints[e]
		reqs += a.Requests - b.Requests
		latMS += a.LatencyMS - b.LatencyMS
		shed += a.Shed - b.Shed
	}
	hits := r.after.Cache.Hits - r.before.Cache.Hits
	lookups := hits + r.after.Cache.Misses - r.before.Cache.Misses + r.after.Cache.Shared - r.before.Cache.Shared
	return map[string]float64{
		"serve.server_ms_mean":  ratio(float64(latMS), float64(reqs)),
		"serve.cache_hit_ratio": ratio(float64(hits), float64(lookups)),
		"serve.cache_evictions": float64(r.after.Cache.Evictions - r.before.Cache.Evictions),
		"serve.shed_ratio":      ratio(float64(shed), float64(reqs)),
	}
}
