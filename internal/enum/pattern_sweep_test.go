package enum

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/computation"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/observer"
)

// witnessKey fingerprints a witness pair for cross-run comparison.
func witnessKey(p *memmodel.Pair) string {
	if p == nil {
		return "<none>"
	}
	return p.C.String() + " / " + p.O.String()
}

// edgeOf builds the PatternEdge relating two registered models.
func edgeOf(t *testing.T, a, b string) PatternEdge {
	t.Helper()
	ra, okA := memmodel.Lookup(a)
	rb, okB := memmodel.Lookup(b)
	if !okA || !okB {
		t.Fatalf("unknown model %q or %q", a, b)
	}
	return PatternEdge{A: ra.Bit, B: rb.Bit}
}

// sameRelation reports whether two relations agree on every count and
// byte-for-byte on both witnesses.
func sameRelation(a, b Relation) bool {
	return a.AOnly == b.AOnly && a.BOnly == b.BOnly && a.Both == b.Both &&
		witnessKey(a.WitnessAOnly) == witnessKey(b.WitnessAOnly) &&
		witnessKey(a.WitnessBOnly) == witnessKey(b.WitnessBOnly)
}

// sweepEdges runs PatternSweepParallel over the named edges.
func sweepEdges(t *testing.T, names [][2]string, maxNodes, numLocs, workers int) PatternSweep {
	t.Helper()
	edges := make([]PatternEdge, len(names))
	for i, nm := range names {
		edges[i] = edgeOf(t, nm[0], nm[1])
	}
	got, err := PatternSweepParallel(context.Background(), edges, maxNodes, numLocs, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkSweepMatchesCompare fails unless the sweep over the named edges
// reproduces the serial brute-force oracle Compare on every edge:
// counts and byte-identical witnesses.
func checkSweepMatchesCompare(t *testing.T, names [][2]string, maxNodes, numLocs, workers int) {
	t.Helper()
	got := sweepEdges(t, names, maxNodes, numLocs, workers)
	for i, nm := range names {
		ra, _ := memmodel.Lookup(nm[0])
		rb, _ := memmodel.Lookup(nm[1])
		want := Compare(ra.Model, rb.Model, maxNodes, numLocs)
		if r := got.Edges[i]; !sameRelation(r, want) {
			t.Fatalf("n=%d locs=%d workers=%d %s vs %s: sweep (%d,%d,%d) A: %s B: %s\n  oracle (%d,%d,%d) A: %s B: %s",
				maxNodes, numLocs, workers, nm[0], nm[1],
				r.AOnly, r.BOnly, r.Both, witnessKey(r.WitnessAOnly), witnessKey(r.WitnessBOnly),
				want.AOnly, want.BOnly, want.Both, witnessKey(want.WitnessAOnly), witnessKey(want.WitnessBOnly))
		}
	}
}

// oracleEdges are the edges the sweep is checked against Compare on:
// a strict inclusion, a chain link, an incomparable pair and two
// models decided by different checks.
var oracleEdges = [][2]string{{"SC", "LC"}, {"LC", "NN"}, {"NW", "WN"}, {"TSO", "RA"}}

// TestCompareParallelMatchesSequential: the sharded sweep reproduces
// the serial oracle Compare — counts and witnesses — for every worker
// count (0 = GOMAXPROCS).
func TestCompareParallelMatchesSequential(t *testing.T) {
	for _, sz := range []struct{ n, locs int }{{2, 2}, {3, 1}} {
		for _, workers := range []int{0, 1, 2, 5} {
			checkSweepMatchesCompare(t, oracleEdges, sz.n, sz.locs, workers)
		}
	}
}

// TestCompareParallelWitnesses: SC vs LC on two locations is a strict
// inclusion, and the sharded sweep's witness really lies in LC \ SC.
func TestCompareParallelWitnesses(t *testing.T) {
	par := sweepEdges(t, [][2]string{{"SC", "LC"}}, 2, 2, 3).Edges[0]
	if !par.StrictlyStronger() {
		t.Fatalf("SC vs LC: %+v", par)
	}
	if par.WitnessBOnly == nil {
		t.Fatal("strictness without witness")
	}
	if memmodel.SC.Contains(par.WitnessBOnly.C, par.WitnessBOnly.O) ||
		!memmodel.LC.Contains(par.WitnessBOnly.C, par.WitnessBOnly.O) {
		t.Fatal("witness misclassified")
	}
}

// TestCompareReducedMatchesCompare: the symmetry-reduced sweep, run
// serially, reproduces the unreduced counts exactly and the witnesses
// byte-for-byte at every size up to n=4 (n=3 under -short).
func TestCompareReducedMatchesCompare(t *testing.T) {
	maxNodes := 4
	if testing.Short() {
		maxNodes = 3
	}
	for n := 2; n <= maxNodes; n++ {
		checkSweepMatchesCompare(t, oracleEdges, n, 1, 1)
	}
}

// TestCountPairsParallel: the sweep's orbit-weighted pair total equals
// the size of the unreduced universe for every worker count.
func TestCountPairsParallel(t *testing.T) {
	for _, sz := range []struct{ n, locs int }{{3, 1}, {2, 2}} {
		seq := EachPair(sz.n, sz.locs, func(*computation.Computation, *observer.Observer) bool { return true })
		for _, workers := range []int{0, 1, 4} {
			got, err := PatternSweepParallel(context.Background(), nil, sz.n, sz.locs, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Pairs != int64(seq) {
				t.Fatalf("n=%d locs=%d workers=%d: sweep covers %d pairs, universe has %d",
					sz.n, sz.locs, workers, got.Pairs, seq)
			}
		}
	}
}

// nwWN is NW vs WN, incomparable on the n=4, L=1 universe: both
// witnesses exist and the one-sided pairs span many shards.
var nwWN = [][2]string{{"NW", "WN"}}

// TestCompareParallelWitnessDeterminism: the reported witnesses may not
// flap between repeated runs at the same worker count. This
// regression-tests the completion-order merge bug — a channel merge
// reported whichever shard's witness arrived first, so NW vs WN
// flapped under scheduler noise. Repetitions under -race give the
// scheduler room to expose any order dependence.
func TestCompareParallelWitnessDeterminism(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		var wantA, wantB string
		for rep := 0; rep < 10; rep++ {
			r := sweepEdges(t, nwWN, 4, 1, workers).Edges[0]
			if r.WitnessAOnly == nil || r.WitnessBOnly == nil {
				t.Fatalf("workers=%d: NW vs WN should be incomparable with witnesses: %+v", workers, r)
			}
			gotA, gotB := witnessKey(r.WitnessAOnly), witnessKey(r.WitnessBOnly)
			if rep == 0 {
				wantA, wantB = gotA, gotB
				continue
			}
			if gotA != wantA || gotB != wantB {
				t.Fatalf("workers=%d rep=%d: witness flapped:\n  A: %s -> %s\n  B: %s -> %s",
					workers, rep, wantA, gotA, wantB, gotB)
			}
		}
	}
}

// TestCompareParallelMatchesSerialWitnesses: the witnesses are a pure
// function of the universe, equal to the serial oracle's for every
// worker count (not merely stable per count).
func TestCompareParallelMatchesSerialWitnesses(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		checkSweepMatchesCompare(t, nwWN, 4, 1, workers)
	}
}

// liveRecorder hands the sweep's live gauges to the test.
type liveRecorder struct{ live atomic.Pointer[obs.Counters] }

func (r *liveRecorder) Record(ev obs.Event) {
	if ev.Kind == obs.RunStart {
		r.live.Store(ev.Live)
	}
}

// TestPatternSweepCancel: a sweep under an already-cancelled context
// and one cancelled mid-flight both return ctx.Err() promptly, and no
// worker goroutine outlives the call.
func TestPatternSweepCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	const workers = 4

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pre, err := PatternSweepParallel(ctx, nil, 4, 1, workers, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled sweep: err = %v, want context.Canceled", err)
	}
	// Each worker polls ctx after at most ctxPollMask+1 pairs.
	if limit := int64(workers * (ctxPollMask + 1)); pre.RepPairs > limit {
		t.Fatalf("pre-cancelled sweep decided %d pairs, more than one poll window per worker (%d)", pre.RepPairs, limit)
	}

	// Mid-sweep: n=5 takes seconds; cancel once the workers have
	// published progress.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	rec := &liveRecorder{}
	type result struct {
		sweep PatternSweep
		err   error
	}
	done := make(chan result, 1)
	go func() {
		s, err := PatternSweepParallel(ctx, nil, 5, 1, 2, rec)
		done <- result{s, err}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if live := rec.live.Load(); live != nil && live.States.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep published no progress")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case res := <-done:
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("mid-sweep cancel: err = %v, want context.Canceled", res.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep did not return within 10s of cancellation")
	}

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the sweeps, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPatternSweepEdgesMatchCensus: a sweep given edges decides only
// the bits those edges read, yet every edge's Relation must equal the
// one folded from the census sweep (edges == nil, every bit decided),
// and a single-edge sweep (the narrowest mask) must report the same
// counts and witnesses as the sweep over all edges at once.
func TestPatternSweepEdgesMatchCensus(t *testing.T) {
	rows := memmodel.Registry()
	var edges []PatternEdge
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			edges = append(edges, PatternEdge{A: rows[i].Bit, B: rows[j].Bit})
		}
	}
	ctx := context.Background()
	for _, tc := range []struct{ n, locs int }{{3, 1}, {3, 2}} {
		census, err := PatternSweepParallel(ctx, nil, tc.n, tc.locs, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		all, err := PatternSweepParallel(ctx, edges, tc.n, tc.locs, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if all.Pairs != census.Pairs {
			t.Fatalf("n=%d locs=%d: edge sweep covers %d pairs, census %d", tc.n, tc.locs, all.Pairs, census.Pairs)
		}
		for ei, e := range edges {
			var want Relation
			for p, cnt := range census.Counts {
				inA, inB := uint16(p)&e.A != 0, uint16(p)&e.B != 0
				switch {
				case inA && inB:
					want.Both += int(cnt)
				case inA:
					want.AOnly += int(cnt)
				case inB:
					want.BOnly += int(cnt)
				}
			}
			got := all.Edges[ei]
			if got.AOnly != want.AOnly || got.BOnly != want.BOnly || got.Both != want.Both {
				t.Fatalf("n=%d locs=%d edge %#x/%#x: swept (%d,%d,%d), census fold (%d,%d,%d)",
					tc.n, tc.locs, e.A, e.B, got.AOnly, got.BOnly, got.Both, want.AOnly, want.BOnly, want.Both)
			}
			one, err := PatternSweepParallel(ctx, []PatternEdge{e}, tc.n, tc.locs, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := one.Edges[0]
			if r.AOnly != got.AOnly || r.BOnly != got.BOnly || r.Both != got.Both ||
				witnessKey(r.WitnessAOnly) != witnessKey(got.WitnessAOnly) ||
				witnessKey(r.WitnessBOnly) != witnessKey(got.WitnessBOnly) {
				t.Fatalf("n=%d locs=%d edge %#x/%#x: single-edge sweep differs from the all-edge sweep:\n  (%d,%d,%d) A: %s B: %s\n  (%d,%d,%d) A: %s B: %s",
					tc.n, tc.locs, e.A, e.B,
					r.AOnly, r.BOnly, r.Both, witnessKey(r.WitnessAOnly), witnessKey(r.WitnessBOnly),
					got.AOnly, got.BOnly, got.Both, witnessKey(got.WitnessAOnly), witnessKey(got.WitnessBOnly))
			}
		}
	}
}
