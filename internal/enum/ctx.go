package enum

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/computation"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/observer"
	"repro/internal/search"
)

// This file holds the governed parallel compare: the universe sweep
// under a context.Context, stopping promptly on cancellation or
// deadline expiry and reporting ctx.Err() instead of a silently
// truncated count. The sweeps are exponential in the node bound, so a
// caller that exposes them (experiments, CLIs) needs a way to abandon a
// size that turned out too big.

// ctxPollMask throttles ctx polling to every 256 pairs: an Err() call
// is cheap but not free, and pair visits are nanoseconds each.
const ctxPollMask = 255

// CompareParallelObs is Compare distributed over `workers` goroutines
// (defaults to GOMAXPROCS when workers <= 0) under a context, with
// observability. The result — witnesses included — is identical to
// Compare for every worker count. Every worker polls ctx and the sweep
// returns promptly (no leaked goroutines) with ctx.Err() when
// cancelled; the merged partial Relation is returned either way. rec
// (nil = off) receives a RunStart carrying live gauges (pairs visited
// as States, shards finished as Done), one WorkerDone per shard, and a
// RunEnd whose Str summarizes the relation. Sharded accumulators merge
// in shard order (see mergeShards for why order matters), and gauge
// publication rides the existing ctx-poll tick, so an attached
// recorder costs one atomic add per ctxPollMask+1 pairs and nothing
// per pair.
func CompareParallelObs(ctx context.Context, a, b memmodel.Model, maxNodes, numLocs, workers int, rec obs.Recorder) (Relation, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var live *obs.Counters
	if rec != nil {
		live = &obs.Counters{}
		obs.Emit(rec, obs.Event{Kind: obs.RunStart, Total: workers, Live: live})
	}
	var cancelled atomic.Bool
	results := make([]Relation, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			r := &results[shard]
			tick, published := 0, 0
			for n := 0; n <= maxNodes; n++ {
				eachComputationShardIdx(n, numLocs, shard, workers, func(c *computation.Computation, dagIdx, labelIdx uint64) bool {
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
							}
						}
						if cancelled.Load() {
							return false
						}
						compareInto(r, a, b, c, o, 1, rank)
						return true
					})
					return !cancelled.Load()
				})
				if cancelled.Load() {
					break
				}
			}
			if rec != nil {
				live.States.Add(int64(tick - published))
				live.Done.Add(1)
				obs.Emit(rec, obs.Event{Kind: obs.WorkerDone, Worker: shard,
					Stats: &obs.Stats{States: int64(tick), Workers: workers}})
			}
		}(w)
	}
	wg.Wait()
	merged := mergeShards(results)
	if rec != nil {
		obs.Emit(rec, obs.Event{Kind: obs.RunEnd, Str: relationOutcome(merged, ctx.Err()),
			Stats: &obs.Stats{States: live.States.Load(), Workers: workers}})
	}
	return merged, ctx.Err()
}

// relationOutcome spells a relation for RunEnd events, mirroring the
// wording the enumerate CLI prints.
func relationOutcome(r Relation, err error) string {
	switch {
	case err != nil:
		return "INCONCLUSIVE(" + search.ContextStopReason(err).String() + ")"
	case r.Equal():
		return "equal"
	case r.StrictlyStronger():
		return "A strictly stronger"
	case r.Incomparable():
		return "incomparable"
	default:
		return "B strictly stronger"
	}
}

// compareInto classifies one pair against both models, accumulating
// into r with the pair's class weight (1 for unreduced sweeps, the
// orbit size for reduced ones) — the shared body of Compare,
// CompareReduced and CompareParallelObs. rank tags a
// newly-recorded witness with its global enumeration position for the
// shard merge; serial sweeps may pass the zero rank.
func compareInto(r *Relation, a, b memmodel.Model, c *computation.Computation, o *observer.Observer, weight int, rank pairRank) {
	inA := a.Contains(c, o)
	inB := b.Contains(c, o)
	switch {
	case inA && inB:
		r.Both += weight
	case inA:
		r.AOnly += weight
		if r.WitnessAOnly == nil {
			r.WitnessAOnly = &memmodel.Pair{C: c, O: o.Clone()}
			r.rankAOnly = rank
		}
	case inB:
		r.BOnly += weight
		if r.WitnessBOnly == nil {
			r.WitnessBOnly = &memmodel.Pair{C: c, O: o.Clone()}
			r.rankBOnly = rank
		}
	}
}
