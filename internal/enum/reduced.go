package enum

// This file implements the symmetry-reduced sweeps: enumerate one
// canonical representative per isomorphism class and multiply
// per-computation counts by the class's orbit size instead of
// re-deciding every member.
//
// Every model and property swept by this repository is
// isomorphism-invariant (see the package comment), so membership of a
// representative decides membership for its whole class, and exact
// universe totals are recovered as Σ orbit. The canonical
// representative is defined as the enumeration-order-minimal class
// member (dag.Canonicalizer), which pins down witnesses too: the first
// witness-bearing computation of the full enumeration is necessarily
// canonical — its representative precedes it in enumeration order and
// carries an isomorphic witness, so being first forces the two to
// coincide — and observer enumeration within a computation is shared
// by both paths. Reduced sweeps therefore report byte-identical
// witnesses to the unreduced sweeps, not merely isomorphic ones.

import (
	"runtime"
	"sync"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// EachComputationReduced enumerates one canonical representative per
// isomorphism class of computations with exactly n nodes over numLocs
// locations, passing each with its orbit size (the number of
// ordered-universe members it stands for). Σ orbit over a full sweep
// equals EachComputation's visit count. The computation is freshly
// allocated and may be retained; enumeration stops early if fn returns
// false. Returns the number of representatives visited.
func EachComputationReduced(n, numLocs int, fn func(c *computation.Computation, orbit int64) bool) int {
	visited := 0
	eachComputationReducedShard(n, numLocs, 0, 1, func(c *computation.Computation, orbit int64, _, _ uint64) bool {
		visited++
		return fn(c, orbit)
	})
	return visited
}

// EachComputationReducedUpTo enumerates canonical representatives with
// 0..maxNodes nodes, smallest first.
func EachComputationReducedUpTo(maxNodes, numLocs int, fn func(c *computation.Computation, orbit int64) bool) int {
	total := 0
	for n := 0; n <= maxNodes; n++ {
		stopped := false
		total += EachComputationReduced(n, numLocs, func(c *computation.Computation, orbit int64) bool {
			if !fn(c, orbit) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			break
		}
	}
	return total
}

// eachComputationReducedShard enumerates the canonical representatives
// whose dag mask index is ≡ shard (mod shards), passing the orbit size
// and the (dag, labeling) enumeration indices for global witness
// ranking. Ownership is decided on the raw mask index, before the
// symmetry analysis, so each worker analyzes only its own dags.
func eachComputationReducedShard(n, numLocs, shard, shards int, fn func(c *computation.Computation, orbit int64, dagIdx, labelIdx uint64) bool) {
	ops := computation.AllOps(numLocs)
	cz := dag.NewCanonicalizer()
	var dagIdx uint64
	dag.EachDagOnNodes(n, func(g *dag.Dag) bool {
		idx := dagIdx
		dagIdx++
		if idx%uint64(shards) != uint64(shard) {
			return true
		}
		if !cz.AnalyzeDag(g) {
			return true // every labeling of a non-minimal mask is non-canonical
		}
		labels := make([]computation.Op, n)
		lidx := make([]int32, n)
		stopped := false
		var rec func(i int, labelIdx uint64) bool
		rec = func(i int, labelIdx uint64) bool {
			if i == n {
				orbit, canonical := cz.LabelOrbit(lidx)
				if !canonical {
					return true
				}
				c := computation.MustFrom(g.Clone(), append([]computation.Op(nil), labels...), numLocs)
				if !fn(c, orbit, idx, labelIdx) {
					stopped = true
					return false
				}
				return true
			}
			for oi, op := range ops {
				labels[i] = op
				lidx[i] = int32(oi)
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

// CompareReduced computes the Relation between two isomorphism-
// invariant models over the universe up to maxNodes nodes by deciding
// only canonical representatives and scaling by orbit. Counts equal
// Compare's exactly; the witnesses are byte-identical to Compare's
// (see the file comment for the argument).
func CompareReduced(a, b memmodel.Model, maxNodes, numLocs int) Relation {
	var r Relation
	for n := 0; n <= maxNodes; n++ {
		eachComputationReducedShard(n, numLocs, 0, 1, func(c *computation.Computation, orbit int64, dagIdx, labelIdx uint64) bool {
			rank := pairRank{set: true, n: int32(n), dag: dagIdx, label: labelIdx}
			observer.Enumerate(c, func(o *observer.Observer) bool {
				compareInto(&r, a, b, c, o, int(orbit), rank)
				return true
			})
			return true
		})
	}
	return r
}

// CensusReducedParallel counts, for each isomorphism-invariant model,
// the universe pairs it contains, plus the universe pair total,
// deciding only canonical representatives. Results equal
// CensusParallel's exactly.
func CensusReducedParallel(models []memmodel.Model, maxNodes, numLocs, workers int) ([]int, int) {
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
				eachComputationReducedShard(n, numLocs, shard, workers, func(c *computation.Computation, orbit int64, _, _ uint64) bool {
					observer.Enumerate(c, func(o *observer.Observer) bool {
						total += int(orbit)
						for i, m := range models {
							if m.Contains(c, o) {
								counts[i] += int(orbit)
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
