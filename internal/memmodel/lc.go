package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/observer"
)

// LC is location consistency (Definition 18), called coherence in much
// of the literature [GS95, HP96]: each location is serialized
// independently. (C, Φ) ∈ LC iff for every location l there is a
// topological sort T_l ∈ TS(C) with Φ(l, ·) = W_{T_l}(l, ·):
//
//	LC = { (C, Φ) : ∀l ∃T ∈ TS(C) ∀u  Φ(l, u) = W_T(l, u) }
//
// Section 6 proves LC is the constructible version of NN-dag
// consistency (Theorem 23); the experiments machine-check that claim.
//
// Note this is *not* the "location consistency" of Gao & Sarkar [GS95],
// which is a different (weaker) model; the paper's Section 7 discusses
// the naming collision.
var LC Model = lcModel{}

type lcModel struct{}

func (lcModel) Name() string { return "LC" }

func (lcModel) Contains(c *computation.Computation, o *observer.Observer) bool {
	_, v := LCDecide(context.Background(), c, o)
	return v.In()
}
