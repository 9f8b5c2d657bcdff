package expt

import (
	"testing"

	"repro/internal/computation"
	"repro/internal/enum"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

func witnessString(p *memmodel.Pair) string {
	if p == nil {
		return "<none>"
	}
	return p.C.String() + " / " + p.O.String()
}

// oracleLattice is the brute-force lattice report: the serial,
// unreduced enum.Compare once per edge over every pair, with the SC/LC
// edge swept over two locations when numLocs is 1 (the sizes here stay
// within sclcAuxMaxNodes), judged by the shared edgeOK.
func oracleLattice(maxNodes, numLocs int) LatticeReport {
	rep := LatticeReport{MaxNodes: maxNodes, NumLocs: numLocs}
	rep.Pairs = enum.EachPair(maxNodes, numLocs, func(*computation.Computation, *observer.Observer) bool { return true })
	for _, e := range LatticeEdges() {
		locs := numLocs
		if e.A == "SC" && e.B == "LC" && locs < 2 {
			locs = 2
		}
		r := enum.Compare(mustLookup(e.A).Model, mustLookup(e.B).Model, maxNodes, locs)
		got, ok := edgeOK(e, r, maxNodes, numLocs)
		rep.Edges = append(rep.Edges, EdgeResult{Edge: e, Relation: r, Got: got, OK: ok})
	}
	return rep
}

// TestRunLatticeReducedMatchesUnreduced: the reduced lattice reproduces
// the brute-force oracle report exactly — per-edge counts, verdicts,
// byte-identical witnesses and the rendered table.
func TestRunLatticeReducedMatchesUnreduced(t *testing.T) {
	sizes := []struct{ n, locs int }{{2, 1}, {3, 1}, {3, 2}}
	if !testing.Short() {
		sizes = append(sizes, struct{ n, locs int }{4, 1})
	}
	for _, sz := range sizes {
		full := oracleLattice(sz.n, sz.locs)
		red := RunLatticeReduced(sz.n, sz.locs, 3, nil)
		if red.Pairs != full.Pairs {
			t.Fatalf("n=%d locs=%d: reduced pair total %d != %d", sz.n, sz.locs, red.Pairs, full.Pairs)
		}
		if len(red.Edges) != len(full.Edges) {
			t.Fatalf("n=%d locs=%d: edge count %d != %d", sz.n, sz.locs, len(red.Edges), len(full.Edges))
		}
		for i, fe := range full.Edges {
			re := red.Edges[i]
			if re.Got != fe.Got || re.OK != fe.OK {
				t.Fatalf("n=%d locs=%d edge %s/%s: reduced verdict %q ok=%v, oracle %q ok=%v",
					sz.n, sz.locs, fe.Edge.A, fe.Edge.B, re.Got, re.OK, fe.Got, fe.OK)
			}
			if re.Relation.AOnly != fe.Relation.AOnly || re.Relation.BOnly != fe.Relation.BOnly ||
				re.Relation.Both != fe.Relation.Both {
				t.Fatalf("n=%d locs=%d edge %s/%s: reduced counts (%d,%d,%d) != oracle (%d,%d,%d)",
					sz.n, sz.locs, fe.Edge.A, fe.Edge.B,
					re.Relation.AOnly, re.Relation.BOnly, re.Relation.Both,
					fe.Relation.AOnly, fe.Relation.BOnly, fe.Relation.Both)
			}
			if witnessString(re.Relation.WitnessAOnly) != witnessString(fe.Relation.WitnessAOnly) ||
				witnessString(re.Relation.WitnessBOnly) != witnessString(fe.Relation.WitnessBOnly) {
				t.Fatalf("n=%d locs=%d edge %s/%s: reduced witnesses differ\n  A: %s\n  vs %s\n  B: %s\n  vs %s",
					sz.n, sz.locs, fe.Edge.A, fe.Edge.B,
					witnessString(re.Relation.WitnessAOnly), witnessString(fe.Relation.WitnessAOnly),
					witnessString(re.Relation.WitnessBOnly), witnessString(fe.Relation.WitnessBOnly))
			}
		}
		if red.String() != full.String() {
			t.Fatalf("n=%d locs=%d: rendered reports differ:\n%s\nvs\n%s", sz.n, sz.locs, red, full)
		}
	}
}

// TestRunPropertiesReducedMatches: the reduced property sweep must
// reproduce, field for field (PropertyReport is comparable), the same
// check over every computation of the unreduced universe, each with
// weight 1.
func TestRunPropertiesReducedMatches(t *testing.T) {
	unreduced := func(maxNodes, numLocs int, fn func(c *computation.Computation, weight int64) bool) int {
		return enum.EachComputationUpTo(maxNodes, numLocs, func(c *computation.Computation) bool { return fn(c, 1) })
	}
	models := []memmodel.Model{memmodel.SC, memmodel.LC, memmodel.NN}
	n := 3
	if !testing.Short() {
		// NN's augmentation failure first appears at size 4; include it so
		// FirstFailure equality is exercised on a failing report too.
		n = 4
	}
	for _, m := range models {
		full := runProperties(m, n, 1, unreduced)
		red := RunProperties(m, n, 1)
		if full != red {
			t.Fatalf("%s: reduced property report differs:\n%+v\nvs\n%+v", m.Name(), red, full)
		}
	}
}
