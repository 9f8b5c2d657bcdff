package memmodel

import (
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
)

// This file computes the happens-before relation the causal,
// release/acquire and TSO deciders share: the transitive closure of the
// computation's precedence edges together with the observation
// ("reads-from") edges Φ induces,
//
//	hb = ( E(C) ∪ { (Φ(l,u), u) : Φ(l,u) ∉ {⊥, u} } )⁺
//
// In the computation-centric setting every node carries a full view
// (Φ(l, u) is defined for every location, not just the ones u reads),
// so observation edges arise from every non-⊥, non-self entry of Φ:
// "u's view of l includes w" is causal knowledge of w exactly like a
// read of it. The relation may be cyclic — an observer can claim a
// view that feeds back into the past — and a cyclic hb is immediate
// non-membership for any hb-based model, so the builder reports it
// instead of panicking the way dag.Closure would.

// hbRel is the happens-before relation of one pair together with the
// scratch that builds it. The pooled PatternDecider keeps one across
// pairs (reset once per computation); the standalone deciders build a
// fresh one per call, so they stay stateless.
type hbRel struct {
	c     *computation.Computation
	n     int
	words int      // words per row of desc
	desc  []uint64 // row u (words wide) is the set of v ≠ u with u ≺_hb v

	// Build scratch: the generating edges and a topological order.
	succ  [][]dag.Node
	indeg []int32
	order []dag.Node

	// members is CAUSAL's per-node causal past.
	members []dag.Node
}

// newHB returns a fresh relation for c.
func newHB(c *computation.Computation) *hbRel {
	h := &hbRel{}
	h.reset(c)
	return h
}

// reset points h at c, growing its buffers to c's size.
func (h *hbRel) reset(c *computation.Computation) {
	n := c.NumNodes()
	h.c, h.n, h.words = c, n, (n+63)/64
	h.desc = resize(h.desc, n*h.words)
	h.succ = resize(h.succ, n)
	h.indeg = resize(h.indeg, n)
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Elements past the old length keep their stale values
// (for slices of slices, their buffers), so callers reinitialize.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// build computes hb for (c, o) and reports whether it is acyclic (a
// cyclic pair is outside every hb-based model, and desc is then
// meaningless). The observer must already be validated.
func (h *hbRel) build(o *observer.Observer) bool {
	n := h.n
	// Generators: the dag's edges plus one edge per observation of a
	// foreign write. Multi-edges are harmless below.
	for u := range h.succ {
		h.succ[u] = append(h.succ[u][:0], h.c.Dag().Succs(dag.Node(u))...)
	}
	for l := computation.Loc(0); int(l) < h.c.NumLocs(); l++ {
		for u := 0; u < n; u++ {
			w := o.Get(l, dag.Node(u))
			if w != observer.Bottom && w != dag.Node(u) {
				h.succ[w] = append(h.succ[w], dag.Node(u))
			}
		}
	}
	// Kahn's algorithm: a topological order exists iff hb is acyclic.
	indeg := h.indeg
	clear(indeg)
	for _, out := range h.succ {
		for _, v := range out {
			indeg[v]++
		}
	}
	order := h.order[:0]
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			order = append(order, dag.Node(u))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, v := range h.succ[order[i]] {
			if indeg[v]--; indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	h.order = order
	if len(order) != n {
		return false
	}
	// Close in reverse topological order: a node's descendants are its
	// successors and theirs, all already closed.
	clear(h.desc)
	for i := n - 1; i >= 0; i-- {
		row := h.row(order[i])
		for _, v := range h.succ[order[i]] {
			row[v/64] |= 1 << (v % 64)
			for k, w := range h.row(v) {
				row[k] |= w
			}
		}
	}
	return true
}

func (h *hbRel) row(u dag.Node) []uint64 {
	return h.desc[int(u)*h.words : int(u+1)*h.words]
}

// prec reports u ≺_hb v (strict).
func (h *hbRel) prec(u, v dag.Node) bool {
	return h.desc[int(u)*h.words+int(v)/64]&(1<<(v%64)) != 0
}

// locWriters lists, per location, the nodes writing it.
func locWriters(c *computation.Computation) [][]dag.Node {
	writers := make([][]dag.Node, c.NumLocs())
	for l := range writers {
		writers[l] = c.Writers(computation.Loc(l))
	}
	return writers
}
