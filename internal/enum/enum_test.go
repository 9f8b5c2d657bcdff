package enum

import (
	"testing"

	"repro/internal/computation"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

func TestEachComputationCounts(t *testing.T) {
	// n nodes, L locations: 2^(n(n-1)/2) dags × (1+2L)^n labelings.
	cases := []struct{ n, locs, want int }{
		{0, 1, 1},
		{1, 1, 3},
		{2, 1, 2 * 9},
		{3, 1, 8 * 27},
		{2, 2, 2 * 25},
	}
	for _, tc := range cases {
		got := EachComputation(tc.n, tc.locs, func(c *computation.Computation) bool {
			if c.NumNodes() != tc.n || c.NumLocs() != tc.locs {
				t.Fatalf("bad member: %v", c)
			}
			return true
		})
		if got != tc.want {
			t.Errorf("EachComputation(%d, %d) = %d, want %d", tc.n, tc.locs, got, tc.want)
		}
	}
}

func TestEachComputationDistinct(t *testing.T) {
	seen := map[string]bool{}
	EachComputation(3, 1, func(c *computation.Computation) bool {
		k := c.String()
		if seen[k] {
			t.Fatalf("duplicate %s", k)
		}
		seen[k] = true
		return true
	})
}

func TestEachComputationUpTo(t *testing.T) {
	want := 1 + 3 + 18 + 216
	if got := EachComputationUpTo(3, 1, func(*computation.Computation) bool { return true }); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	all := AllComputations(2, 1)
	if len(all) != 1+3+18 {
		t.Fatalf("AllComputations = %d", len(all))
	}
	// Smallest first.
	if all[0].NumNodes() != 0 || all[len(all)-1].NumNodes() != 2 {
		t.Fatal("ordering wrong")
	}
}

func TestEarlyStops(t *testing.T) {
	n := 0
	EachComputationUpTo(3, 1, func(*computation.Computation) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("visited %d", n)
	}
	n = 0
	EachPair(2, 1, func(*computation.Computation, *observer.Observer) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Fatalf("pairs visited %d", n)
	}
}

func TestEachPairValidAndCounted(t *testing.T) {
	count := EachPair(2, 1, func(c *computation.Computation, o *observer.Observer) bool {
		if err := o.Validate(c); err != nil {
			t.Fatalf("invalid pair enumerated: %v", err)
		}
		return true
	})
	// Hand count: n=0: 1 pair. n=1: N and R have the ⊥ observer (1 each),
	// W observes itself (1): 3 pairs. n=2 with 18 computations: verified
	// against observer.Count below.
	wantN2 := 0
	EachComputation(2, 1, func(c *computation.Computation) bool {
		wantN2 += observer.Count(c, 0)
		return true
	})
	if count != 1+3+wantN2 {
		t.Fatalf("pairs = %d, want %d", count, 1+3+wantN2)
	}
}

func TestModelPairsAndStronger(t *testing.T) {
	scPairs := modelPairs(memmodel.SC, 2, 1)
	lcPairs := modelPairs(memmodel.LC, 2, 1)
	if len(scPairs) == 0 || len(lcPairs) < len(scPairs) {
		t.Fatalf("|SC| = %d, |LC| = %d", len(scPairs), len(lcPairs))
	}
	if !stronger(memmodel.SC, memmodel.LC, lcPairs) {
		t.Fatal("SC must be stronger than LC")
	}
}

// modelPairs materializes every pair of the universe belonging to m.
func modelPairs(m memmodel.Model, maxNodes, numLocs int) []memmodel.Pair {
	var out []memmodel.Pair
	EachPair(maxNodes, numLocs, func(c *computation.Computation, o *observer.Observer) bool {
		if m.Contains(c, o) {
			out = append(out, memmodel.Pair{C: c, O: o.Clone()})
		}
		return true
	})
	return out
}

// stronger reports whether a ⊆ b over the given pairs (Definition 4).
func stronger(a, b memmodel.Model, universe []memmodel.Pair) bool {
	for _, p := range universe {
		if a.Contains(p.C, p.O) && !b.Contains(p.C, p.O) {
			return false
		}
	}
	return true
}

func TestCompareRelations(t *testing.T) {
	// At ≤2 nodes with one location, SC = LC (a single location's sort
	// is the sort), and NN ⊆ WW strictly requires ≥3 nodes... verify the
	// basic classifications instead.
	r := Compare(memmodel.SC, memmodel.LC, 2, 1)
	if !r.Equal() {
		t.Fatalf("SC vs LC at ≤2 nodes, 1 loc: %+v", r)
	}
	r = Compare(memmodel.SC, memmodel.LC, 2, 2)
	if !r.StrictlyStronger() {
		t.Fatalf("SC vs LC at 2 locs must be strict: %+v", r)
	}
	if r.WitnessBOnly == nil {
		t.Fatal("strictness must come with a witness")
	}
	if r.Incomparable() {
		t.Fatal("SC vs LC cannot be incomparable")
	}
	// At ≤3 nodes NW happens to be stronger than WN; the separation in
	// the NW direction (Figure 2) needs 4 nodes.
	r = Compare(memmodel.NW, memmodel.WN, 3, 1)
	if !r.StrictlyStronger() {
		t.Fatalf("NW vs WN at ≤3 nodes: %+v", r)
	}
	if testing.Short() {
		t.Skip("4-node incomparability sweep skipped in -short mode")
	}
	r = Compare(memmodel.NW, memmodel.WN, 4, 1)
	if !r.Incomparable() {
		t.Fatalf("NW vs WN must be incomparable at ≤4 nodes: %+v", r)
	}
}
