package enum

import (
	"runtime"
	"sync"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// This file parallelizes the universe sweeps. The universe of dags on n
// nodes is indexed by an edge bitmask, so it shards trivially:
// worker w handles the masks congruent to w modulo the worker count.
// Each worker owns private accumulators; workers write their result
// into a shard-indexed slice and the merge folds that slice by global
// enumeration rank. (An earlier version merged from a channel in
// completion order, which made the reported witness depend on
// goroutine timing; a later one kept the lowest-shard witness, which
// was deterministic but still worker-count-dependent. Rank merging
// makes the whole Relation — witnesses included — a pure function of
// the universe, equal to the serial sweep's for any worker count.)

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

// eachComputationShard enumerates the computations of exactly n nodes
// whose dag mask is ≡ shard (mod shards).
func eachComputationShard(n, numLocs, shard, shards int, fn func(c *computation.Computation) bool) {
	eachComputationShardIdx(n, numLocs, shard, shards, func(c *computation.Computation, _, _ uint64) bool {
		return fn(c)
	})
}

// eachComputationShardIdx is eachComputationShard passing each
// computation's (dag mask, labeling) enumeration indices for witness
// ranking.
func eachComputationShardIdx(n, numLocs, shard, shards int, fn func(c *computation.Computation, dagIdx, labelIdx uint64) bool) {
	ops := computation.AllOps(numLocs)
	var dagIdx uint64
	dag.EachDagOnNodes(n, func(g *dag.Dag) bool {
		idx := dagIdx
		dagIdx++
		if idx%uint64(shards) != uint64(shard) {
			return true
		}
		labels := make([]computation.Op, n)
		stopped := false
		var rec func(i int, labelIdx uint64) bool
		rec = func(i int, labelIdx uint64) bool {
			if i == n {
				c := computation.MustFrom(g.Clone(), append([]computation.Op(nil), labels...), numLocs)
				if !fn(c, idx, labelIdx) {
					stopped = true
					return false
				}
				return true
			}
			for oi, op := range ops {
				labels[i] = op
				if !rec(i+1, labelIdx*uint64(len(ops))+uint64(oi)) {
					return false
				}
			}
			return true
		}
		rec(0, 0)
		return !stopped
	})
}

// mergeShards folds per-shard relations. The counts commute; each
// witness is the rank-minimal one across shards, which — since every
// shard keeps its own enumeration-first witness — is exactly the
// witness the serial sweep reports.
func mergeShards(results []Relation) Relation {
	var merged Relation
	for i := range results {
		r := &results[i]
		merged.AOnly += r.AOnly
		merged.BOnly += r.BOnly
		merged.Both += r.Both
		if r.WitnessAOnly != nil && (merged.WitnessAOnly == nil || r.rankAOnly.less(merged.rankAOnly)) {
			merged.WitnessAOnly = r.WitnessAOnly
			merged.rankAOnly = r.rankAOnly
		}
		if r.WitnessBOnly != nil && (merged.WitnessBOnly == nil || r.rankBOnly.less(merged.rankBOnly)) {
			merged.WitnessBOnly = r.WitnessBOnly
			merged.rankBOnly = r.rankBOnly
		}
	}
	return merged
}

// CensusParallel counts, for each model, the universe pairs it
// contains, plus the universe total, sharded over workers (<= 0 means
// GOMAXPROCS). Pure counts commute, so the shard merge is trivially
// deterministic.
func CensusParallel(models []memmodel.Model, maxNodes, numLocs, workers int) ([]int, int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type shardCount struct {
		counts []int
		total  int
	}
	results := make([]shardCount, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			counts := make([]int, len(models))
			total := 0
			for n := 0; n <= maxNodes; n++ {
				eachComputationShard(n, numLocs, shard, workers, func(c *computation.Computation) bool {
					observer.Enumerate(c, func(o *observer.Observer) bool {
						total++
						for i, m := range models {
							if m.Contains(c, o) {
								counts[i]++
							}
						}
						return true
					})
					return true
				})
			}
			results[shard] = shardCount{counts: counts, total: total}
		}(w)
	}
	wg.Wait()
	out := make([]int, len(models))
	total := 0
	for _, r := range results {
		total += r.total
		for i, c := range r.counts {
			out[i] += c
		}
	}
	return out, total
}

// CountPairsParallel counts all (computation, observer) pairs of the
// universe using `workers` goroutines.
func CountPairsParallel(maxNodes, numLocs, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			total := 0
			for n := 0; n <= maxNodes; n++ {
				eachComputationShard(n, numLocs, shard, workers, func(c *computation.Computation) bool {
					total += observer.Count(c, 0)
					return true
				})
			}
			results[shard] = total
		}(w)
	}
	wg.Wait()
	total := 0
	for _, t := range results {
		total += t
	}
	return total
}
