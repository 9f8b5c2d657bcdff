package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
)

// CAUSAL is causal memory (Ahamad, Neiger, Burns, Kohli & Hutto,
// lifted to the computation-centric setting; Cohen's coherent causal
// memory is this plus per-location agreement). Writes propagate
// respecting the happens-before relation hb = (precedence ∪
// observation)⁺, and every node may serialize its own causal past
// independently — there is no global arbitration, so two nodes may
// disagree about the order of hb-concurrent writes:
//
//	(C, Φ) ∈ CAUSAL  iff  hb is acyclic and every node u has a
//	linearization of its causal past consistent with hb in which,
//	for every location l, Φ(l, u) is the last write to l (and no
//	write to l exists in the past when Φ(l, u) = ⊥).
//
// The per-node check is polynomial: Φ(l, u) last among the past
// l-writes is "every other past l-write lands before it", and the
// required linearization exists iff hb restricted to the past plus
// those forcing edges is jointly acyclic. The joint check matters —
// per-location hidden-write tests miss cycles that only close across
// locations — and the differential fuzzer pins it to a brute-force
// enumeration of linearizations.
var CAUSAL Model = causalModel{}

type causalModel struct{}

func (causalModel) Name() string { return "CAUSAL" }

func (causalModel) Contains(c *computation.Computation, o *observer.Observer) bool {
	if o.Validate(c) != nil {
		return false
	}
	v := CausalDecide(context.Background(), c, o)
	return v.In()
}

// CausalDecide decides (c, o) ∈ CAUSAL under ctx. The check is
// polynomial; ctx is polled once per node.
func CausalDecide(ctx context.Context, c *computation.Computation, o *observer.Observer) Verdict {
	if o.Validate(c) != nil {
		return search.VerdictOut()
	}
	hb := newHB(c)
	if !hb.build(o) {
		return search.VerdictOut()
	}
	return hb.causalCheck(ctx, o, locWriters(c), newDigraphScratch(c.NumNodes()))
}

// causalCheck decides CAUSAL for a valid observer o whose (acyclic)
// hb is built; writers lists each location's writes, and g is scratch
// sized for h's computation.
func (h *hbRel) causalCheck(ctx context.Context, o *observer.Observer, writers [][]dag.Node, g *digraphScratch) Verdict {
	for u := 0; u < h.n; u++ {
		if err := ctx.Err(); err != nil {
			return search.VerdictInconclusive(search.ContextStopReason(err))
		}
		node := dag.Node(u)
		// The members are u's causal past: its strict hb-ancestors, then u.
		members := h.members[:0]
		for x := 0; x < h.n; x++ {
			g.idx[x] = -1
			if h.prec(dag.Node(x), node) {
				members = append(members, dag.Node(x))
			}
		}
		members = append(members, node)
		h.members = members
		for i, m := range members {
			g.idx[m] = int32(i)
		}
		adj := g.digraph(len(members))
		for i, x := range members {
			for j, y := range members {
				if i != j && h.prec(x, y) {
					adj[i] = append(adj[i], int32(j))
				}
			}
		}
		for l, ws := range writers {
			loc := computation.Loc(l)
			if h.c.Op(node).IsWriteTo(loc) {
				// u's own write is last automatically: u is the
				// hb-maximum of its past.
				continue
			}
			want := o.Get(loc, node)
			if want == observer.Bottom {
				for _, w := range ws {
					if w != node && g.idx[w] >= 0 {
						return search.VerdictOut() // a past write is visible
					}
				}
				continue
			}
			// want ≺_hb u by construction (observation edges are in
			// hb), so it is a member. Every other past l-write must
			// linearize before it.
			wi := g.idx[want]
			for _, w := range ws {
				if w == want || w == node {
					continue
				}
				if j := g.idx[w]; j >= 0 {
					adj[j] = append(adj[j], wi)
				}
			}
		}
		if !g.acyclic() {
			return search.VerdictOut()
		}
	}
	return search.VerdictIn()
}
