package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
)

// RA is the C11 release/acquire fragment lifted to the
// computation-centric setting: every write is a release and every
// observation an acquire, so happens-before hb = (precedence ∪
// observation)⁺ synchronizes globally, and each location carries one
// total modification order mo_l that all nodes agree on:
//
//	(C, Φ) ∈ RA  iff  hb is acyclic and for every location l there
//	is a total order mo_l of the writes to l such that
//	  - w ≺_hb w'           ⇒  w <_mo w'          (write coherence)
//	  - w' ≺_hb u, w' ≠ Φ(l,u) ⇒  w' <_mo Φ(l,u)  (no hidden write)
//	  - u ≺_hb w', w' ≠ Φ(l,u) ⇒  Φ(l,u) <_mo w'  (no future write)
//	  - Φ(l,u) = ⊥          ⇒  no write to l precedes u in hb.
//
// These are exactly the coherence axioms (CoWW, CoWR, CoRW; CoRR
// follows because observation edges are inside hb), so mo_l exists iff
// the forced-order digraph over the writes of l is acyclic — a
// polynomial check per location, differentially fuzzed against a
// brute-force enumeration of candidate modification orders.
//
// RA ⊆ LC: RA's per-location digraph contains every edge LC's
// serialization digraph forces (hb ⊇ the precedence closure), so an
// RA-consistent pair is location-consistent. The strictness witnesses
// live in testdata/litmus and are machine-checked by cmd/lattice.
var RA Model = raModel{}

type raModel struct{}

func (raModel) Name() string { return "RA" }

func (raModel) Contains(c *computation.Computation, o *observer.Observer) bool {
	if o.Validate(c) != nil {
		return false
	}
	return RADecide(context.Background(), c, o).In()
}

// RADecide decides (c, o) ∈ RA under ctx. The check is polynomial;
// ctx is polled once per location.
func RADecide(ctx context.Context, c *computation.Computation, o *observer.Observer) Verdict {
	if o.Validate(c) != nil {
		return search.VerdictOut()
	}
	hb := newHB(c)
	if !hb.build(o) {
		return search.VerdictOut()
	}
	return hb.raCheck(ctx, o, locWriters(c), newDigraphScratch(c.NumNodes()))
}

// raCheck decides RA for a valid observer o whose (acyclic) hb is
// built; writers lists each location's writes.
func (h *hbRel) raCheck(ctx context.Context, o *observer.Observer, writers [][]dag.Node, g *digraphScratch) Verdict {
	for l, ws := range writers {
		if err := ctx.Err(); err != nil {
			return search.VerdictInconclusive(search.ContextStopReason(err))
		}
		loc := computation.Loc(l)
		for i, w := range ws {
			g.idx[w] = int32(i)
		}
		adj := g.digraph(len(ws))
		for i, w := range ws {
			for j, x := range ws {
				if i != j && h.prec(w, x) {
					adj[i] = append(adj[i], int32(j))
				}
			}
		}
		for u := 0; u < h.n; u++ {
			node := dag.Node(u)
			want := o.Get(loc, node)
			if want == observer.Bottom {
				for _, w := range ws {
					if h.prec(w, node) {
						return search.VerdictOut()
					}
				}
				continue
			}
			wi := g.idx[want] // want is a write to l (or u itself when u writes l)
			for j, w := range ws {
				if int32(j) == wi {
					continue
				}
				if h.prec(w, node) {
					adj[j] = append(adj[j], wi)
				}
				if h.prec(node, w) {
					adj[wi] = append(adj[wi], int32(j))
				}
			}
		}
		if !g.acyclic() {
			return search.VerdictOut()
		}
	}
	return search.VerdictIn()
}
