package enum

import (
	"context"
	"testing"

	"repro/internal/memmodel"
)

// TestPatternSweepEdgesMatchCensus: a sweep given edges decides only
// the bits those edges read, yet every edge's Relation must equal the
// one folded from the census sweep (edges == nil, every bit decided),
// and a single-edge sweep (the narrowest mask) must report the same
// counts and witnesses as the sweep over all edges at once.
func TestPatternSweepEdgesMatchCensus(t *testing.T) {
	rows := memmodel.Registry()
	var edges []PatternEdge
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			edges = append(edges, PatternEdge{A: rows[i].Bit, B: rows[j].Bit})
		}
	}
	ctx := context.Background()
	for _, tc := range []struct{ n, locs int }{{3, 1}, {3, 2}} {
		census, err := PatternSweepParallel(ctx, nil, tc.n, tc.locs, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		all, err := PatternSweepParallel(ctx, edges, tc.n, tc.locs, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if all.Pairs != census.Pairs {
			t.Fatalf("n=%d locs=%d: edge sweep covers %d pairs, census %d", tc.n, tc.locs, all.Pairs, census.Pairs)
		}
		for ei, e := range edges {
			var want Relation
			for p, cnt := range census.Counts {
				inA, inB := uint16(p)&e.A != 0, uint16(p)&e.B != 0
				switch {
				case inA && inB:
					want.Both += int(cnt)
				case inA:
					want.AOnly += int(cnt)
				case inB:
					want.BOnly += int(cnt)
				}
			}
			got := all.Edges[ei]
			if got.AOnly != want.AOnly || got.BOnly != want.BOnly || got.Both != want.Both {
				t.Fatalf("n=%d locs=%d edge %#x/%#x: swept (%d,%d,%d), census fold (%d,%d,%d)",
					tc.n, tc.locs, e.A, e.B, got.AOnly, got.BOnly, got.Both, want.AOnly, want.BOnly, want.Both)
			}
			one, err := PatternSweepParallel(ctx, []PatternEdge{e}, tc.n, tc.locs, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := one.Edges[0]
			if r.AOnly != got.AOnly || r.BOnly != got.BOnly || r.Both != got.Both ||
				witnessKey(r.WitnessAOnly) != witnessKey(got.WitnessAOnly) ||
				witnessKey(r.WitnessBOnly) != witnessKey(got.WitnessBOnly) {
				t.Fatalf("n=%d locs=%d edge %#x/%#x: single-edge sweep differs from the all-edge sweep:\n  (%d,%d,%d) A: %s B: %s\n  (%d,%d,%d) A: %s B: %s",
					tc.n, tc.locs, e.A, e.B,
					r.AOnly, r.BOnly, r.Both, witnessKey(r.WitnessAOnly), witnessKey(r.WitnessBOnly),
					got.AOnly, got.BOnly, got.Both, witnessKey(got.WitnessAOnly), witnessKey(got.WitnessBOnly))
			}
		}
	}
}
