package enum

import (
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// TestReducedOrbitsCoverUniverse: Σ orbit over the canonical
// representatives equals the full enumeration count, per size, and the
// representative stream is a subsequence of the full stream.
func TestReducedOrbitsCoverUniverse(t *testing.T) {
	cases := []struct{ n, locs int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {2, 2}, {3, 2},
	}
	for _, tc := range cases {
		var full []string
		EachComputation(tc.n, tc.locs, func(c *computation.Computation) bool {
			full = append(full, c.String())
			return true
		})
		var members int64
		reps := 0
		cursor := 0
		EachComputationReduced(tc.n, tc.locs, func(c *computation.Computation, orbit int64) bool {
			if orbit < 1 {
				t.Fatalf("n=%d locs=%d: orbit %d < 1 for %v", tc.n, tc.locs, orbit, c)
			}
			members += orbit
			reps++
			key := c.String()
			for cursor < len(full) && full[cursor] != key {
				cursor++
			}
			if cursor == len(full) {
				t.Fatalf("n=%d locs=%d: representative %s not in enumeration order", tc.n, tc.locs, key)
			}
			cursor++
			return true
		})
		if members != int64(len(full)) {
			t.Errorf("n=%d locs=%d: orbits cover %d members, universe has %d (%d reps)",
				tc.n, tc.locs, members, len(full), reps)
		}
		if reps >= len(full) && tc.n > 1 {
			t.Errorf("n=%d locs=%d: no reduction (%d reps of %d members)", tc.n, tc.locs, reps, len(full))
		}
	}
}

// TestOrbitSoundness samples isomorphism-class members and checks each
// decides identically to its canonical representative under every
// Figure-1 model — the invariance assumption the reduction rests on.
func TestOrbitSoundness(t *testing.T) {
	models := []memmodel.Model{memmodel.SC, memmodel.LC, memmodel.NN, memmodel.NW, memmodel.WN, memmodel.WW}
	decide := func(c *computation.Computation) []int {
		var sig []int
		observer.Enumerate(c, func(o *observer.Observer) bool {
			bits := 0
			for i, m := range models {
				if m.Contains(c, o) {
					bits |= 1 << i
				}
			}
			sig = append(sig, bits)
			return true
		})
		return sig
	}
	// For every canonical representative at n=3, decide every member of
	// its class (images under all topological relabelings) and compare
	// the multiset of per-observer membership signatures.
	EachComputationReduced(3, 1, func(c *computation.Computation, orbit int64) bool {
		repSig := decide(c)
		repCount := make(map[int]int)
		for _, s := range repSig {
			repCount[s]++
		}
		n := c.NumNodes()
		lidx := make([]int32, n)
		for u := 0; u < n; u++ {
			lidx[u] = int32(opIndex(c.Op(dag.Node(u)), c.NumLocs()))
		}
		seen := map[string]bool{}
		eachTopoPerm(c.Dag(), func(perm []dag.Node) {
			g := dag.New(n)
			labels := make([]computation.Op, n)
			for pos, orig := range perm {
				labels[pos] = c.Op(orig)
			}
			for u := 0; u < n; u++ {
				for _, v := range c.Dag().Succs(dag.Node(u)) {
					g.MustAddEdge(posOf(perm, dag.Node(u)), posOf(perm, v))
				}
			}
			m := computation.MustFrom(g, labels, c.NumLocs())
			if seen[m.String()] {
				return
			}
			seen[m.String()] = true
			memCount := make(map[int]int)
			for _, s := range decide(m) {
				memCount[s]++
			}
			if len(memCount) != len(repCount) {
				t.Fatalf("member %v of class %v: signature multiset differs", m, c)
			}
			for k, v := range repCount {
				if memCount[k] != v {
					t.Fatalf("member %v of class %v: signature %b count %d != %d", m, c, k, memCount[k], v)
				}
			}
		})
		if int64(len(seen)) != orbit {
			t.Fatalf("class %v: %d distinct members, orbit says %d", c, len(seen), orbit)
		}
		return true
	})
}

func opIndex(op computation.Op, numLocs int) int {
	for i, o := range computation.AllOps(numLocs) {
		if o == op {
			return i
		}
	}
	panic("op not in palette")
}

func posOf(perm []dag.Node, orig dag.Node) dag.Node {
	for pos, o := range perm {
		if o == orig {
			return dag.Node(pos)
		}
	}
	panic("node not in perm")
}

// eachTopoPerm enumerates every topological relabeling perm
// (perm[position] = original node) of d.
func eachTopoPerm(d *dag.Dag, fn func(perm []dag.Node)) {
	n := d.NumNodes()
	perm := make([]dag.Node, n)
	placed := make([]bool, n)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == n {
			fn(perm)
			return
		}
		for u := 0; u < n; u++ {
			if placed[u] {
				continue
			}
			ok := true
			for _, p := range d.Preds(dag.Node(u)) {
				if !placed[p] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			placed[u] = true
			perm[pos] = dag.Node(u)
			rec(pos + 1)
			placed[u] = false
		}
	}
	rec(0)
}

// TestCompareReducedMatchesCompare: the reduced sweep must reproduce
// the unreduced counts exactly and the witnesses byte-for-byte at
// every size both paths run.
func TestCompareReducedMatchesCompare(t *testing.T) {
	pairs := []struct{ a, b memmodel.Model }{
		{memmodel.SC, memmodel.LC},
		{memmodel.NW, memmodel.WN},
		{memmodel.LC, memmodel.NN},
	}
	maxNodes := 4
	if testing.Short() {
		maxNodes = 3
	}
	for _, mp := range pairs {
		for n := 2; n <= maxNodes; n++ {
			seq := Compare(mp.a, mp.b, n, 1)
			red := CompareReduced(mp.a, mp.b, n, 1)
			if red.AOnly != seq.AOnly || red.BOnly != seq.BOnly || red.Both != seq.Both {
				t.Fatalf("n=%d %T vs %T: reduced counts (%d,%d,%d) != unreduced (%d,%d,%d)",
					n, mp.a, mp.b, red.AOnly, red.BOnly, red.Both, seq.AOnly, seq.BOnly, seq.Both)
			}
			if witnessKey(red.WitnessAOnly) != witnessKey(seq.WitnessAOnly) ||
				witnessKey(red.WitnessBOnly) != witnessKey(seq.WitnessBOnly) {
				t.Fatalf("n=%d: reduced witnesses differ:\n  A: %s\n  vs %s\n  B: %s\n  vs %s", n,
					witnessKey(red.WitnessAOnly), witnessKey(seq.WitnessAOnly),
					witnessKey(red.WitnessBOnly), witnessKey(seq.WitnessBOnly))
			}
		}
	}
}

// TestCompareParallelMatchesSerialWitnesses: with rank merging the
// unreduced parallel witnesses equal the serial ones for every worker
// count (not merely stable per count).
func TestCompareParallelMatchesSerialWitnesses(t *testing.T) {
	seq := Compare(memmodel.NW, memmodel.WN, 4, 1)
	for _, workers := range []int{1, 2, 3, 8} {
		par := compareParallel(memmodel.NW, memmodel.WN, 4, 1, workers)
		if witnessKey(par.WitnessAOnly) != witnessKey(seq.WitnessAOnly) ||
			witnessKey(par.WitnessBOnly) != witnessKey(seq.WitnessBOnly) {
			t.Fatalf("workers=%d: parallel witnesses differ from serial:\n  A: %s vs %s\n  B: %s vs %s",
				workers, witnessKey(par.WitnessAOnly), witnessKey(seq.WitnessAOnly),
				witnessKey(par.WitnessBOnly), witnessKey(seq.WitnessBOnly))
		}
	}
}

// TestReducedCensusAndPairCounts: reduced census and pair totals equal
// the unreduced ones.
func TestReducedCensusAndPairCounts(t *testing.T) {
	models := []memmodel.Model{memmodel.SC, memmodel.LC, memmodel.NN, memmodel.WW}
	wantCounts, wantTotal := CensusParallel(models, 3, 1, 2)
	for _, workers := range []int{1, 3} {
		gotCounts, gotTotal := CensusReducedParallel(models, 3, 1, workers)
		if gotTotal != wantTotal {
			t.Fatalf("workers=%d: reduced census total %d != %d", workers, gotTotal, wantTotal)
		}
		for i := range models {
			if gotCounts[i] != wantCounts[i] {
				t.Fatalf("workers=%d model %d: reduced count %d != %d", workers, i, gotCounts[i], wantCounts[i])
			}
		}
	}
}
