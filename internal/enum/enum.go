// Package enum enumerates exhaustive universes of small computations
// and (computation, observer) pairs. The paper's theorems are
// universally quantified over all computations; the experiments
// machine-check them over every computation up to a size bound.
//
// The universe for n nodes and L locations consists of every dag on n
// ordered nodes whose edges go from lower to higher index — every dag is
// isomorphic to one of these — combined with every labelling of the
// nodes by instructions from O = {N} ∪ {R(l), W(l) : l < L}. All
// memory models in this repository are isomorphism-invariant, so the
// ordered-node universe loses no generality.
//
// Universe sizes grow as 2^(n(n-1)/2) · (1+2L)^n:
//
//	n=3, L=1:      8 ·  27 =       216 computations
//	n=4, L=1:     64 ·  81 =     5,184
//	n=4, L=2:     64 · 625 =    40,000
//	n=5, L=1:  1,024 · 243 =   248,832
//
// Pair universes multiply by the observer count of each computation.
package enum

import (
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// EachComputation enumerates every computation with exactly n nodes
// over numLocs locations (ordered-node universe). The computation
// passed to fn is freshly allocated and may be retained. Enumeration
// stops early if fn returns false. Returns the count visited.
func EachComputation(n, numLocs int, fn func(c *computation.Computation) bool) int {
	ops := computation.AllOps(numLocs)
	visited := 0
	stopped := false
	dag.EachDagOnNodes(n, func(g *dag.Dag) bool {
		labels := make([]computation.Op, n)
		var rec func(i int) bool
		rec = func(i int) bool {
			if stopped {
				return false
			}
			if i == n {
				c := computation.MustFrom(g.Clone(), append([]computation.Op(nil), labels...), numLocs)
				visited++
				if !fn(c) {
					stopped = true
					return false
				}
				return true
			}
			for _, op := range ops {
				labels[i] = op
				if !rec(i + 1) {
					return false
				}
			}
			return true
		}
		rec(0)
		return !stopped
	})
	return visited
}

// EachComputationUpTo enumerates every computation with 0..maxNodes
// nodes (smallest first). Same conventions as EachComputation.
func EachComputationUpTo(maxNodes, numLocs int, fn func(c *computation.Computation) bool) int {
	total := 0
	for n := 0; n <= maxNodes; n++ {
		stopped := false
		total += EachComputation(n, numLocs, func(c *computation.Computation) bool {
			if !fn(c) {
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

// AllComputations materializes the universe up to maxNodes nodes.
func AllComputations(maxNodes, numLocs int) []*computation.Computation {
	var out []*computation.Computation
	EachComputationUpTo(maxNodes, numLocs, func(c *computation.Computation) bool {
		out = append(out, c)
		return true
	})
	return out
}

// EachPair enumerates every (computation, observer) pair over the
// universe up to maxNodes nodes. The observer passed to fn is reused;
// clone to retain. Returns the count visited.
func EachPair(maxNodes, numLocs int, fn func(c *computation.Computation, o *observer.Observer) bool) int {
	total := 0
	EachComputationUpTo(maxNodes, numLocs, func(c *computation.Computation) bool {
		stopped := false
		total += observer.Enumerate(c, func(o *observer.Observer) bool {
			if !fn(c, o) {
				stopped = true
				return false
			}
			return true
		})
		return !stopped
	})
	return total
}

// Relation classifies the relationship between two models over the
// universe: for each model, whether it contains a pair the other lacks.
type Relation struct {
	AOnly, BOnly int            // pair counts in exactly one model
	Both         int            // pairs in both
	WitnessAOnly *memmodel.Pair // example in A \ B, if any
	WitnessBOnly *memmodel.Pair // example in B \ A, if any
	// Witness enumeration ranks, used by the parallel merges to keep
	// the globally-first witness independent of the worker count.
	rankAOnly, rankBOnly pairRank
}

// Equal reports A = B over the universe.
func (r Relation) Equal() bool { return r.AOnly == 0 && r.BOnly == 0 }

// StrictlyStronger reports A ⊊ B over the universe.
func (r Relation) StrictlyStronger() bool { return r.AOnly == 0 && r.BOnly > 0 }

// Incomparable reports that neither contains the other.
func (r Relation) Incomparable() bool { return r.AOnly > 0 && r.BOnly > 0 }

// Compare computes the Relation between models a and b over the
// universe of all pairs up to maxNodes nodes and numLocs locations.
func Compare(a, b memmodel.Model, maxNodes, numLocs int) Relation {
	var r Relation
	EachPair(maxNodes, numLocs, func(c *computation.Computation, o *observer.Observer) bool {
		compareInto(&r, a, b, c, o, 1, pairRank{})
		return true
	})
	return r
}
