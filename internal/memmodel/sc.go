package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/observer"
)

// SC is sequential consistency (Definition 17): (C, Φ) ∈ SC iff there
// is a single topological sort T ∈ TS(C) whose last-writer function
// agrees with Φ at every location:
//
//	SC = { (C, Φ) : ∃T ∈ TS(C) ∀l ∀u  Φ(l, u) = W_T(l, u) }
//
// Because the definition quantifies over topological sorts of the
// computation rather than interleavings of per-processor instruction
// streams, it generalizes Lamport's processor-centric definition
// (Section 4 of the paper).
var SC Model = scModel{}

type scModel struct{}

func (scModel) Name() string { return "SC" }

func (scModel) Contains(c *computation.Computation, o *observer.Observer) bool {
	_, v, _ := SCDecide(context.Background(), c, o, SearchOptions{})
	return v.In()
}

func allLocs(c *computation.Computation) []computation.Loc {
	locs := make([]computation.Loc, c.NumLocs())
	for l := range locs {
		locs[l] = computation.Loc(l)
	}
	return locs
}
