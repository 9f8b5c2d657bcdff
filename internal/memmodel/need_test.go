package memmodel_test

import (
	"testing"

	"repro/internal/computation"
	"repro/internal/enum"
	"repro/internal/expt"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// TestPatternNeedMatchesFull differentially checks Pattern's demand
// mask: for every single registry bit, every lattice edge's pair mask
// and the full mask, Pattern(o, need) must agree with Pattern(o, all)
// on the bits in need and leave every other bit 0. One decider serves
// computations of mixed sizes and location counts, in an order that
// shrinks and grows them, so stale scratch from a previous pair or
// computation shows up as a disagreement.
func TestPatternNeedMatchesFull(t *testing.T) {
	var all uint16
	var masks []uint16
	for _, r := range memmodel.Registry() {
		all |= r.Bit
		masks = append(masks, r.Bit)
	}
	for _, e := range expt.LatticeEdges() {
		a, _ := memmodel.Lookup(e.A)
		b, _ := memmodel.Lookup(e.B)
		masks = append(masks, a.Bit|b.Bit)
	}
	masks = append(masks, all)
	cases := []struct{ n, locs int }{
		{3, 2}, {4, 1}, {1, 2}, {3, 1}, {2, 2}, {0, 1}, {2, 1}, {1, 1}, {0, 2},
	}
	if testing.Short() {
		cases = []struct{ n, locs int }{{3, 2}, {3, 1}, {2, 2}, {1, 1}}
	}
	pd := memmodel.NewPatternDecider()
	for _, tc := range cases {
		pairs := 0
		enum.EachComputation(tc.n, tc.locs, func(c *computation.Computation) bool {
			pd.Reset(c)
			observer.Enumerate(c, func(o *observer.Observer) bool {
				pairs++
				full := pd.Pattern(o, all)
				for _, need := range masks {
					if got := pd.Pattern(o, need); got != full&need {
						t.Fatalf("n=%d locs=%d %v / %v: Pattern(need=%09b) = %09b, want %09b (full %09b)",
							tc.n, tc.locs, c, o, need, got, full&need, full)
					}
				}
				return true
			})
			return true
		})
		if pairs == 0 {
			t.Fatalf("n=%d locs=%d: no pairs enumerated", tc.n, tc.locs)
		}
	}
}
