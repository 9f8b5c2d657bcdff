// Package fleet is the scale-out layer of the decision stack: a
// coordinator that partitions the SC search's admissible root frontier
// — the same split internal/search fans in-process workers over — into
// contiguous shards, dispatches them to a fleet of ccmd replicas over
// POST /v1/batch, and merges the shard verdicts back into the exact
// answer a single box would produce.
//
// The layer is built failure-first:
//
//   - Per-replica health is tracked by a circuit breaker (consecutive
//     hard failures open it; a cooled-down breaker admits one
//     half-open probe). 503 shed responses never open the breaker — a
//     shedding replica is busy, not dead.
//   - Failed shard batches retry with capped exponential backoff plus
//     seeded jitter, honoring 503 Retry-After hints.
//   - Straggling batches are hedged: after HedgeAfter with no answer,
//     the same batch goes to a second healthy replica and the first
//     decided answer wins (the loser is cancelled, and its
//     cancellation never counts against any breaker).
//   - Shards stranded on a dead replica are reissued to the survivors
//     on the next dispatch round.
//   - When a shard exhausts MaxAttempts it is lost, and the merged
//     verdict degrades gracefully to a typed INCONCLUSIVE(fleet) that
//     carries the exact shard coverage — unless some completed shard
//     already found a witness, which is definitive no matter what was
//     lost.
//
// Determinism: the merge is a pure function of the per-shard results
// keyed by shard index (lowest witness root wins — the same rule that
// makes the in-process parallel engine worker-count-independent), so
// arrival order, retries, hedges, and replica assignment cannot change
// the answer. A fleet run over a corpus is byte-identical to ccmc.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/memmodel"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/observer"
	"repro/internal/search"
	"repro/internal/serve"
)

// maxRespBytes bounds a replica response read.
const maxRespBytes = 8 << 20

// Config assembles a Coordinator.
type Config struct {
	// Replicas are the ccmd base URLs (e.g. "http://127.0.0.1:8080").
	Replicas []string
	// Shards is the target number of frontier shards per SC question
	// (0 = one per replica), clamped to the frontier size.
	Shards int
	// MaxAttempts bounds dispatch attempts per shard batch before the
	// shard is declared lost (0 = 4).
	MaxAttempts int
	// HedgeAfter is how long a dispatched batch may straggle before it
	// is hedged to a second healthy replica (0 disables hedging).
	HedgeAfter time.Duration
	// BaseBackoff and MaxBackoff bound the exponential retry backoff
	// (0 = 100ms / 2s). A 503 Retry-After hint overrides a shorter
	// computed backoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold consecutive hard failures open a replica's
	// circuit breaker (0 = 3); BreakerCooldown is the open interval
	// before a half-open probe (0 = 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// RequestTimeout bounds one HTTP attempt (0 = 60s).
	RequestTimeout time.Duration
	// Options is the governance block forwarded with every batch.
	Options serve.Options
	// Recorder receives per-shard dispatch events (ShardSent/Retry/
	// Hedge/Done, BreakerFlip); nil disables them.
	Recorder obs.Recorder
	// Transport overrides the HTTP transport (fault-injection tests).
	Transport http.RoundTripper
	// Seed seeds the backoff jitter (any fixed seed gives replayable
	// timing; the merged answer never depends on it).
	Seed int64
}

// Coordinator dispatches shard batches and merges their verdicts.
type Coordinator struct {
	cfg      Config
	client   *http.Client
	breakers []*breaker
	rrmu     sync.Mutex
	rr       int // dispatch-round rotation cursor, guarded by rrmu
	jmu      sync.Mutex
	jitter   *rand.Rand
	now      func() time.Time
}

// New builds a Coordinator. At least one replica is required.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("fleet: no replicas")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	transport := cfg.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	co := &Coordinator{
		cfg:    cfg,
		client: &http.Client{Transport: transport, Timeout: cfg.RequestTimeout},
		jitter: rand.New(rand.NewSource(cfg.Seed)),
		now:    time.Now,
	}
	for i := range cfg.Replicas {
		i := i
		co.breakers = append(co.breakers, newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, nil, func(state string) {
			obs.Emit(cfg.Recorder, obs.Event{Kind: obs.BreakerFlip, Worker: i, Str: state})
		}))
	}
	return co, nil
}

// ModelOutcome is one model's merged answer within a Report.
type ModelOutcome struct {
	Model        string
	Verdict      search.Verdict
	Witness      string
	LocWitnesses []string
	Violation    string
	// Stats aggregates the engine work across this model's shards.
	Stats serve.SearchStats
	// ShardsTotal and ShardsDone are this question's shard coverage;
	// they differ only when shards were lost to exhausted retries.
	ShardsTotal, ShardsDone int
	// WitnessCanonical reports that every shard below the witness's
	// root exhausted its range, so the witness is exactly the
	// single-box one. An In verdict with a lost or inconclusive shard
	// below the winning root is still definitive, but its witness may
	// be a higher-root one.
	WitnessCanonical bool
}

// Report is the merged outcome of one fleet Check.
type Report struct {
	Outcomes []ModelOutcome
	// ShardsTotal / ShardsDone aggregate coverage over all models.
	ShardsTotal, ShardsDone int
	// Retries, Hedges, and Lost count dispatch-level events.
	Retries, Hedges, Lost int
	// Degraded reports that coverage is incomplete: some shard was
	// lost, so at least one outcome is INCONCLUSIVE(fleet) or carries a
	// non-canonical witness.
	Degraded bool
}

// unit is one dispatchable shard decision.
type unit struct {
	key      string // stable ID, also the batch item ID
	item     serve.BatchItem
	shardIdx int // SC shard ordinal (0 for polynomial models)
	lo, hi   int // frontier range (SC)
	attempts int
	retryAt  time.Time
	result   *serve.BatchResult
	lost     bool
}

// Check decides the pair (given in ccmc text format) against the
// models fleet-wide and merges the shard verdicts. The error return is
// for malformed input or a cancelled context — never for replica
// failures, which degrade into the Report instead.
func (co *Coordinator) Check(ctx context.Context, pair string, models []string) (*Report, error) {
	named, ofn, err := observer.ParsePairString(pair)
	if err != nil {
		return nil, err
	}
	if named.Comp.NumNodes() == 0 {
		return nil, errors.New("fleet: pair has no nodes")
	}
	if len(models) == 0 {
		models = memmodel.ModelNames()
	}
	for _, m := range models {
		if _, ok := memmodel.Lookup(m); !ok {
			return nil, fmt.Errorf("fleet: unknown model %q", m)
		}
	}

	// Build the shard plan: the SC question splits over its root
	// frontier, the polynomial models ship whole.
	var units []*unit
	scShards := 0
	for _, m := range models {
		if m != "SC" {
			units = append(units, &unit{
				key:  m,
				item: serve.BatchItem{ID: m, Pair: pair, Model: m},
			})
			continue
		}
		total, _ := memmodel.SCShardPlan(named.Comp, ofn)
		scShards = co.shardCount(total)
		for s := 0; s < scShards; s++ {
			lo := s * total / scShards
			hi := (s + 1) * total / scShards
			key := fmt.Sprintf("SC:%d:%d-%d", s, lo, hi)
			it := serve.BatchItem{ID: key, Pair: pair, Model: "SC", RootLo: lo, RootHi: hi}
			if scShards == 1 {
				// One shard = the full run; send the canonical full-range
				// form so it shares cache entries with unsharded checks.
				it.RootLo, it.RootHi = 0, 0
				lo, hi = 0, total
			}
			units = append(units, &unit{key: key, item: it, shardIdx: s, lo: lo, hi: hi})
		}
	}

	stats, err := co.run(ctx, units)
	if err != nil {
		return nil, err
	}
	return co.merge(models, units, scShards, stats), nil
}

// shardCount clamps the configured shard target onto a frontier of
// the given size (always at least one shard: a trivial or single-root
// question still dispatches, so the decision stays remote and uniform).
func (co *Coordinator) shardCount(frontier int) int {
	s := co.cfg.Shards
	if s <= 0 {
		s = len(co.cfg.Replicas)
	}
	if frontier < 1 {
		return 1
	}
	if s > frontier {
		s = frontier
	}
	if s < 1 {
		s = 1
	}
	return s
}

// runStats aggregates dispatch-level counters for the Report.
type runStats struct {
	retries, hedges, lost int
}

// run drives the dispatch rounds until every unit is resolved or lost.
func (co *Coordinator) run(ctx context.Context, units []*unit) (runStats, error) {
	var stats runStats
	pending := append([]*unit(nil), units...)
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		now := co.now()
		var ready, waiting []*unit
		for _, u := range pending {
			if u.retryAt.After(now) {
				waiting = append(waiting, u)
			} else {
				ready = append(ready, u)
			}
		}
		if len(ready) == 0 {
			// Sleep until the earliest backoff expires.
			wake := waiting[0].retryAt
			for _, u := range waiting[1:] {
				if u.retryAt.Before(wake) {
					wake = u.retryAt
				}
			}
			if err := co.sleep(ctx, wake.Sub(now)); err != nil {
				return stats, err
			}
			continue
		}

		batches, overflow := co.assign(ready)
		if len(batches) == 0 {
			// Every breaker is open: wait for the earliest cooldown to
			// expire (bounded below so a clock skew cannot spin).
			wake := co.earliestAllow()
			d := wake.Sub(co.now())
			if d < 10*time.Millisecond {
				d = 10 * time.Millisecond
			}
			if err := co.sleep(ctx, d); err != nil {
				return stats, err
			}
			continue
		}

		// Dispatch this round's batches in parallel; collect outcomes.
		type outcome struct {
			batch   batch
			resp    *serve.BatchResponse
			winner  int
			hedged  bool
			failers []attemptFailure
		}
		outcomes := make([]outcome, len(batches))
		var wg sync.WaitGroup
		for bi, b := range batches {
			bi, b := bi, b
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, winner, hedged, failers := co.dispatchBatch(ctx, b)
				outcomes[bi] = outcome{batch: b, resp: resp, winner: winner, hedged: hedged, failers: failers}
			}()
		}
		wg.Wait()

		// Units that did not fit this round's capacity go straight back
		// in the queue (retryAt stays zero, so they are ready again).
		pending = append(waiting, overflow...)
		for _, oc := range outcomes {
			if oc.hedged {
				stats.hedges++
			}
			// Breaker accounting: every resolved attempt counts; hedge
			// losers were cancelled and never appear here.
			var shedAfter time.Duration
			sawShed := false
			for _, f := range oc.failers {
				var shed *shedError
				switch {
				case errors.As(f.err, &shed):
					co.breakers[f.replica].shed()
					sawShed = true
					if shed.retryAfter > shedAfter {
						shedAfter = shed.retryAfter
					}
				case errors.Is(f.err, context.Canceled), errors.Is(f.err, context.DeadlineExceeded):
					// The run context ended; not the replica's fault.
				default:
					co.breakers[f.replica].failure()
				}
			}
			if oc.resp != nil {
				co.breakers[oc.winner].success()
				byID := make(map[string]*serve.BatchResult, len(oc.resp.Results))
				for i := range oc.resp.Results {
					byID[oc.resp.Results[i].ID] = &oc.resp.Results[i]
				}
				for _, u := range oc.batch.units {
					u.result = byID[u.key]
					obs.Emit(co.cfg.Recorder, obs.Event{Kind: obs.ShardDone, Worker: oc.winner, Root: u.shardIdx, Str: "ok"})
				}
				continue
			}
			// The whole batch failed this round: requeue or lose each unit.
			now := co.now()
			for _, u := range oc.batch.units {
				u.attempts++
				if u.attempts >= co.cfg.MaxAttempts {
					u.lost = true
					stats.lost++
					obs.Emit(co.cfg.Recorder, obs.Event{Kind: obs.ShardDone, Worker: -1, Root: u.shardIdx, Str: "lost"})
					continue
				}
				stats.retries++
				backoff := co.backoff(u.attempts)
				if sawShed && shedAfter > backoff {
					backoff = shedAfter
				}
				u.retryAt = now.Add(backoff)
				cause := "error"
				if len(oc.failers) > 0 {
					cause = oc.failers[len(oc.failers)-1].err.Error()
				}
				obs.Emit(co.cfg.Recorder, obs.Event{Kind: obs.ShardRetry, Worker: oc.batch.replica, Root: u.shardIdx, N: int64(u.attempts), Str: cause})
				pending = append(pending, u)
			}
		}
	}
	return stats, nil
}

// batch is one round's dispatch to one replica.
type batch struct {
	replica int
	units   []*unit
	hedged  bool
}

type attemptFailure struct {
	replica int
	err     error
}

// assign partitions ready units round-robin over the replicas whose
// breakers admit dispatch, respecting the server's batch-size cap.
// Units that do not fit this round's capacity are returned as overflow
// so the caller requeues them for the next round.
func (co *Coordinator) assign(ready []*unit) ([]batch, []*unit) {
	n := len(co.cfg.Replicas)
	want := len(ready)
	if want > n {
		want = n
	}
	co.rrmu.Lock()
	start := co.rr
	co.rr = (co.rr + 1) % n
	co.rrmu.Unlock()
	var allowed []int
	for i := 0; i < n && len(allowed) < want; i++ {
		r := (start + i) % n
		if co.breakers[r].allow() {
			allowed = append(allowed, r)
		}
	}
	if len(allowed) == 0 {
		return nil, ready
	}
	batches := make([]batch, len(allowed))
	for i, r := range allowed {
		batches[i] = batch{replica: r}
	}
	const maxPerBatch = 64 // serve's maxBatchItems
	capacity := maxPerBatch * len(allowed)
	var overflow []*unit
	for i, u := range ready {
		if i < capacity {
			batches[i%len(allowed)].units = append(batches[i%len(allowed)].units, u)
		} else {
			overflow = append(overflow, u)
		}
	}
	out := batches[:0]
	for _, b := range batches {
		if len(b.units) > 0 {
			out = append(out, b)
		}
	}
	return out, overflow
}

// earliestAllow returns the earliest instant some breaker re-admits
// dispatch.
func (co *Coordinator) earliestAllow() time.Time {
	var wake time.Time
	for _, b := range co.breakers {
		t := b.nextAllow()
		if wake.IsZero() || t.Before(wake) {
			wake = t
		}
	}
	return wake
}

// dispatchBatch posts one batch with hedging: after HedgeAfter with no
// answer, the same items go to a second healthy replica; the first
// valid response wins and the loser's context is cancelled (its
// abandoned attempt is never accounted anywhere). Returns the winning
// response and replica (or nil and the accumulated hard failures),
// plus whether a hedge was launched.
func (co *Coordinator) dispatchBatch(ctx context.Context, b batch) (*serve.BatchResponse, int, bool, []attemptFailure) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	items := make([]serve.BatchItem, len(b.units))
	for i, u := range b.units {
		items[i] = u.item
	}
	type answer struct {
		replica int
		resp    *serve.BatchResponse
		err     error
	}
	ch := make(chan answer, 2) // primary + at most one hedge; losers park here
	post := func(replica int, attempt int64) {
		obs.Emit(co.cfg.Recorder, obs.Event{Kind: obs.ShardSent, Worker: replica, Root: b.units[0].shardIdx, Total: len(items), N: attempt})
		resp, err := co.post(cctx, replica, items)
		ch <- answer{replica: replica, resp: resp, err: err}
	}
	go post(b.replica, int64(b.units[0].attempts+1))

	var hedgeCh <-chan time.Time
	if co.cfg.HedgeAfter > 0 {
		timer := time.NewTimer(co.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeCh = timer.C
	}

	inFlight := 1
	hedged := false
	var failures []attemptFailure
	for inFlight > 0 {
		select {
		case a := <-ch:
			inFlight--
			if a.err == nil {
				cancel() // the hedge loser, if any, stops now
				return a.resp, a.replica, hedged, failures
			}
			failures = append(failures, attemptFailure{replica: a.replica, err: a.err})
		case <-hedgeCh:
			hedgeCh = nil
			if h, ok := co.pickHedge(b.replica); ok {
				hedged = true
				obs.Emit(co.cfg.Recorder, obs.Event{Kind: obs.ShardHedge, Worker: h, Root: b.units[0].shardIdx})
				inFlight++
				go post(h, int64(b.units[0].attempts+1))
			}
		case <-ctx.Done():
			return nil, -1, hedged, failures
		}
	}
	return nil, -1, hedged, failures
}

// pickHedge selects a healthy replica other than the primary.
func (co *Coordinator) pickHedge(primary int) (int, bool) {
	n := len(co.cfg.Replicas)
	for i := 0; i < n; i++ {
		r := (primary + 1 + i) % n
		if r == primary {
			continue
		}
		if co.breakers[r].allow() {
			return r, true
		}
	}
	return 0, false
}

// shedError is a 503 with its Retry-After hint.
type shedError struct {
	retryAfter time.Duration
}

func (e *shedError) Error() string {
	return fmt.Sprintf("replica shedding load (retry after %v)", e.retryAfter)
}

// post runs one HTTP attempt against a replica and validates the
// response shape: a 200 whose results do not match the request's item
// IDs one-for-one is a corrupt response and counts as a hard failure.
func (co *Coordinator) post(ctx context.Context, replica int, items []serve.BatchItem) (*serve.BatchResponse, error) {
	body, err := json.Marshal(serve.BatchRequest{Items: items, Options: co.cfg.Options})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, co.cfg.Replicas[replica]+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// One fresh correlation id per attempt: the replica's access log
	// and the coordinator's event stream share it, and a retry or hedge
	// of the same shard is distinguishable from its first attempt.
	req.Header.Set(mw.HeaderRequestID, mw.NewRequestID())
	resp, err := co.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRespBytes))
	if err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return nil, &shedError{retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), co.now)}
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("replica %d: status %d: %s", replica, resp.StatusCode, truncate(data, 200))
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		return nil, fmt.Errorf("replica %d: corrupt response: %w", replica, err)
	}
	if len(br.Results) != len(items) {
		return nil, fmt.Errorf("replica %d: %d results for %d items", replica, len(br.Results), len(items))
	}
	seen := make(map[string]bool, len(items))
	for _, r := range br.Results {
		seen[r.ID] = true
	}
	for _, it := range items {
		if !seen[it.ID] {
			return nil, fmt.Errorf("replica %d: response missing item %q", replica, it.ID)
		}
	}
	return &br, nil
}

// parseRetryAfter decodes a Retry-After header: integer seconds or an
// HTTP date, clamped to [1s, 30s]; malformed or absent values back off
// one second.
func parseRetryAfter(h string, now func() time.Time) time.Duration {
	d := time.Second
	if h != "" {
		if secs, err := strconv.Atoi(h); err == nil {
			d = time.Duration(secs) * time.Second
		} else if t, err := http.ParseTime(h); err == nil {
			d = t.Sub(now())
		}
	}
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// backoff computes the capped exponential backoff for the given
// attempt count (1-based), with jitter in [0.5, 1.0] of the nominal
// value so synchronized retries spread out.
func (co *Coordinator) backoff(attempt int) time.Duration {
	d := co.cfg.BaseBackoff << (attempt - 1)
	if d > co.cfg.MaxBackoff || d <= 0 {
		d = co.cfg.MaxBackoff
	}
	co.jmu.Lock()
	f := 0.5 + 0.5*co.jitter.Float64()
	co.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// sleep waits d (minimum 0) or until ctx ends.
func (co *Coordinator) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		d = time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// merge folds the resolved units into the Report. It is deterministic
// by construction: every rule keys on shard index or witness root,
// never on arrival order or replica identity.
func (co *Coordinator) merge(models []string, units []*unit, scShards int, stats runStats) *Report {
	byKey := make(map[string]*unit, len(units))
	var scUnits []*unit
	for _, u := range units {
		byKey[u.key] = u
		if u.item.Model == "SC" {
			scUnits = append(scUnits, u)
		}
	}
	sort.Slice(scUnits, func(i, j int) bool { return scUnits[i].shardIdx < scUnits[j].shardIdx })

	rep := &Report{Retries: stats.retries, Hedges: stats.hedges, Lost: stats.lost}
	for _, m := range models {
		var out ModelOutcome
		if m == "SC" {
			out = mergeSC(scUnits, scShards)
		} else {
			u := byKey[m]
			out = ModelOutcome{Model: m, ShardsTotal: 1, WitnessCanonical: true}
			if u.result != nil {
				out.ShardsDone = 1
				out.Verdict = u.result.Verdict
				out.Witness = u.result.Witness
				out.LocWitnesses = u.result.LocWitnesses
				out.Violation = u.result.Violation
			} else {
				out.Verdict = search.VerdictInconclusive(search.StopFleet)
			}
		}
		rep.ShardsTotal += out.ShardsTotal
		rep.ShardsDone += out.ShardsDone
		rep.Degraded = rep.Degraded || out.ShardsDone < out.ShardsTotal
		rep.Outcomes = append(rep.Outcomes, out)
	}
	return rep
}

// mergeSC merges the SC shard results under the lowest-witness-root
// rule:
//
//   - Any shard with a witness is definitive In; among them the lowest
//     WitnessRoot wins, reproducing exactly the root the single-box
//     engine would commit to. The witness is canonical when every
//     shard below the winning root exhausted its range (neither lost
//     nor stopped inconclusive on a governed limit).
//   - All shards exhausted without a witness is definitive Out.
//   - Otherwise the run is inconclusive: lost shards degrade to the
//     typed fleet reason; with full coverage but some governed shard
//     undecided, the lowest-indexed undecided shard's reason is
//     reported (deterministic regardless of which replica timed out
//     first).
func mergeSC(scUnits []*unit, scShards int) ModelOutcome {
	out := ModelOutcome{Model: "SC", ShardsTotal: scShards, WitnessCanonical: true}
	var win *unit
	anyLost := false
	var firstUndecided *unit
	for _, u := range scUnits {
		if u.result == nil {
			anyLost = true
			continue
		}
		out.ShardsDone++
		if st := u.result.Stats; st != nil {
			out.Stats.States += st.States
			out.Stats.MemoHits += st.MemoHits
			out.Stats.Pruned += st.Pruned
			if st.Workers > out.Stats.Workers {
				out.Stats.Workers = st.Workers
			}
		}
		switch {
		case u.result.Verdict.In():
			if win == nil || u.result.WitnessRoot < win.result.WitnessRoot {
				win = u
			}
		case u.result.Verdict.Inconclusive():
			if firstUndecided == nil {
				firstUndecided = u
			}
		}
	}
	switch {
	case win != nil:
		out.Verdict = search.VerdictIn()
		out.Witness = win.result.Witness
		for _, u := range scUnits {
			// A lost shard below the winning root may hide a lower-root
			// witness; so may one that stopped on a governed limit
			// without exhausting its range.
			exhausted := u.result != nil && !u.result.Verdict.Inconclusive()
			if !exhausted && u.lo < win.result.WitnessRoot {
				out.WitnessCanonical = false
			}
		}
	case anyLost:
		out.Verdict = search.VerdictInconclusive(search.StopFleet)
	case firstUndecided != nil:
		out.Verdict = firstUndecided.result.Verdict
	default:
		out.Verdict = search.VerdictOut()
	}
	return out
}

// truncate clips a byte slice for error messages.
func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}
