package enum

// This file implements the universe sweep behind the lattice, census
// and cmd surfaces: instead of one sweep per Figure-1 edge (each
// deciding two models per pair), one sweep over canonical
// representatives classifies every pair into its membership pattern
// with a pooled memmodel PatternDecider, and every edge's Relation
// falls out of the orbit-weighted pattern census. Witnesses stay
// byte-identical to the serial oracle Compare run once per edge: within
// a shard the first pair on each side of an edge is kept, and the merge
// takes the globally rank-minimal one (same argument as reduced.go —
// the enumeration-first witness-bearing computation is necessarily
// canonical).
//
// The universe of dags on n nodes is indexed by an edge bitmask, so it
// shards trivially: worker w handles the masks congruent to w modulo
// the worker count. Each worker owns private accumulators and writes
// them into a shard-indexed slice; the merge folds that slice by
// global enumeration rank, not by completion or shard order, so the
// whole sweep — witnesses included — is a pure function of the
// universe, equal to the serial oracle's for any worker count.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/computation"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/observer"
)

// PatternEdge selects two membership-pattern bits (memmodel Row.Bit)
// to relate.
type PatternEdge struct{ A, B uint16 }

// ctxPollMask throttles ctx polling to every 256 pairs: an Err() call
// is cheap but not free, and pair visits are nanoseconds each. The
// sweeps are exponential in the node bound, so a caller that exposes
// them (experiments, CLIs, the daemon) needs a way to abandon a size
// that turned out too big.
const ctxPollMask = 255

// pairRank is a pair's position in the global enumeration order:
// computation size, then dag mask index, then labeling index. Within
// one computation every shard scans observers in the same order, so
// computation granularity suffices to order shard-first witnesses.
type pairRank struct {
	set   bool
	n     int32
	dag   uint64
	label uint64
}

// less orders set ranks by enumeration position; an unset rank never
// wins.
func (a pairRank) less(b pairRank) bool {
	if a.set != b.set {
		return a.set
	}
	if a.n != b.n {
		return a.n < b.n
	}
	if a.dag != b.dag {
		return a.dag < b.dag
	}
	return a.label < b.label
}

// PatternSweep is the result of one reduced pattern sweep.
type PatternSweep struct {
	// Edges holds one Relation per requested PatternEdge, with counts
	// over the whole universe and witnesses equal to the ones the
	// unreduced per-edge Compare reports.
	Edges []Relation
	// Counts is the orbit-weighted census: Counts[p] is the number of
	// universe pairs whose membership pattern, restricted to the decided
	// bits, is exactly p (indexed by the 9-bit pattern). The decided
	// bits are those the edges read, or every registry bit when there
	// are no edges.
	Counts [512]int64
	// Pairs and Computations are universe totals (orbit-weighted);
	// RepPairs and RepComputations count what was actually decided.
	Pairs, Computations       int64
	RepPairs, RepComputations int64
}

// Skipped returns the number of universe computations the sweep never
// materialized — the symmetry reduction's saving.
func (s PatternSweep) Skipped() int64 { return s.Computations - s.RepComputations }

type edgeWitness struct {
	aPair, bPair *memmodel.Pair
	aRank, bRank pairRank
}

// PatternSweepParallel classifies every pair of the universe up to
// maxNodes nodes into its Figure-1 membership pattern, deciding only
// canonical representatives (orbit-weighted), sharded over workers
// (<= 0 means GOMAXPROCS). Only the pattern bits the edges read are
// decided (every bit when edges is empty, the census). Edge relations
// and witnesses are identical to running the serial oracle Compare
// once per edge, for every worker count. Every worker polls ctx; on
// cancellation the sweep returns promptly, with no goroutine left
// behind, and reports ctx.Err() beside a partial result the caller
// must discard. The recorder (nil = off) sees a RunStart with live
// gauges (decided pairs as States), one WorkerDone per shard, and a
// RunEnd; WorkerDone and RunEnd stats carry the symmetry gauges
// (Orbits = universe computations covered, SymmetrySkipped =
// computations never materialized).
func PatternSweepParallel(ctx context.Context, edges []PatternEdge, maxNodes, numLocs, workers int, rec obs.Recorder) (PatternSweep, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var live *obs.Counters
	if rec != nil {
		live = &obs.Counters{}
		obs.Emit(rec, obs.Event{Kind: obs.RunStart, Total: workers, Live: live})
	}
	type shardRes struct {
		counts                  [512]int64
		pairs, members, decided int64
		comps, repComps         int64
		wits                    []edgeWitness
	}
	// Decide only the bits the edges read; the census reads them all.
	var need uint16
	for _, e := range edges {
		need |= e.A | e.B
	}
	if len(edges) == 0 {
		for _, r := range memmodel.Registry() {
			need |= r.Bit
		}
	}
	results := make([]shardRes, workers)
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			sr := &results[shard]
			sr.wits = make([]edgeWitness, len(edges))
			pd := memmodel.NewPatternDecider()
			tick, published := 0, 0
			var pubSkip int64
			for n := 0; n <= maxNodes; n++ {
				eachComputationReducedShard(n, numLocs, shard, workers, func(c *computation.Computation, orbit int64, dagIdx, labelIdx uint64) bool {
					pd.Reset(c)
					sr.repComps++
					sr.comps += orbit
					rank := pairRank{set: true, n: int32(n), dag: dagIdx, label: labelIdx}
					observer.Enumerate(c, func(o *observer.Observer) bool {
						tick++
						if tick&ctxPollMask == 0 {
							if ctx.Err() != nil {
								cancelled.Store(true)
							}
							if live != nil {
								live.States.Add(int64(tick - published))
								published = tick
								if skip := sr.comps - sr.repComps; skip != pubSkip {
									live.Skipped.Add(skip - pubSkip)
									pubSkip = skip
								}
							}
						}
						if cancelled.Load() {
							return false
						}
						p := pd.Pattern(o, need)
						sr.counts[p] += orbit
						sr.pairs += orbit
						for ei := range edges {
							ew := &sr.wits[ei]
							inA := p&edges[ei].A != 0
							inB := p&edges[ei].B != 0
							switch {
							case inA && !inB && ew.aPair == nil:
								ew.aPair = &memmodel.Pair{C: c, O: o.Clone()}
								ew.aRank = rank
							case inB && !inA && ew.bPair == nil:
								ew.bPair = &memmodel.Pair{C: c, O: o.Clone()}
								ew.bRank = rank
							}
						}
						return true
					})
					return !cancelled.Load()
				})
				if cancelled.Load() {
					break
				}
			}
			sr.decided = int64(tick)
			if rec != nil {
				live.States.Add(int64(tick - published))
				live.Skipped.Add(sr.comps - sr.repComps - pubSkip)
				live.Done.Add(1)
				obs.Emit(rec, obs.Event{Kind: obs.WorkerDone, Worker: shard,
					Stats: &obs.Stats{States: int64(tick), Orbits: sr.comps,
						SymmetrySkipped: sr.comps - sr.repComps, Workers: workers}})
			}
		}(w)
	}
	wg.Wait()

	var out PatternSweep
	out.Edges = make([]Relation, len(edges))
	wits := make([]edgeWitness, len(edges))
	for i := range results {
		sr := &results[i]
		for p, n := range sr.counts {
			out.Counts[p] += n
		}
		out.Pairs += sr.pairs
		out.Computations += sr.comps
		out.RepPairs += sr.decided
		out.RepComputations += sr.repComps
		for ei := range edges {
			ew, m := &sr.wits[ei], &wits[ei]
			if ew.aPair != nil && (m.aPair == nil || ew.aRank.less(m.aRank)) {
				m.aPair, m.aRank = ew.aPair, ew.aRank
			}
			if ew.bPair != nil && (m.bPair == nil || ew.bRank.less(m.bRank)) {
				m.bPair, m.bRank = ew.bPair, ew.bRank
			}
		}
	}
	for ei, e := range edges {
		r := &out.Edges[ei]
		for p, n := range out.Counts {
			inA := uint16(p)&e.A != 0
			inB := uint16(p)&e.B != 0
			switch {
			case inA && inB:
				r.Both += int(n)
			case inA:
				r.AOnly += int(n)
			case inB:
				r.BOnly += int(n)
			}
		}
		r.WitnessAOnly = wits[ei].aPair
		r.WitnessBOnly = wits[ei].bPair
	}
	if rec != nil {
		obs.Emit(rec, obs.Event{Kind: obs.RunEnd,
			Str: fmt.Sprintf("%d pairs via %d representatives", out.Pairs, out.RepPairs),
			Stats: &obs.Stats{States: live.States.Load(), Orbits: out.Computations,
				SymmetrySkipped: out.Skipped(), Workers: workers}})
	}
	return out, ctx.Err()
}
