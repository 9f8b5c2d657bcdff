package main

import (
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
)

// oracle decides (c, o) ∈ SC and (c, o) ∈ LC from the definitions
// alone, by enumerating topological sorts; it shares no code with the
// search engine the daemon uses.
//
//   - Def 13: the last-writer function W_T(l, u) of a topological sort T
//     is the last node at or before u in T that writes l, or ⊥.
//   - Def 17: (c, o) ∈ SC iff one sort T has W_T(l, u) = Φ(l, u) for
//     every location l and node u.
//   - Def 18: (c, o) ∈ LC iff every location l has its own sort T_l
//     with W_{T_l}(l, u) = Φ(l, u) for every node u.
//
// A prefix is abandoned as soon as a placed node's last writer
// differs from Φ, since later placements cannot change it. The cost is
// factorial in the node count; the benchmark calls it on at most 9
// nodes, at set-up.
func oracle(c *computation.Computation, o *observer.Observer) (sc, lc bool) {
	all := make([]computation.Loc, c.NumLocs())
	for l := range all {
		all[l] = computation.Loc(l)
	}
	sc = existsSort(c, o, all)
	lc = true
	for _, l := range all {
		if !existsSort(c, o, []computation.Loc{l}) {
			lc = false
			break
		}
	}
	return sc, lc
}

// existsSort reports whether some topological sort T of c has
// W_T(l, u) = Φ(l, u) for every l in locs and every node u.
func existsSort(c *computation.Computation, o *observer.Observer, locs []computation.Loc) bool {
	g := c.Dag()
	n := g.NumNodes()
	indeg := make([]int, n)
	for u := range indeg {
		indeg[u] = g.InDegree(dag.Node(u))
	}
	placed := make([]bool, n)
	last := make([]dag.Node, c.NumLocs())
	for l := range last {
		last[l] = observer.Bottom
	}
	var place func(depth int) bool
	place = func(depth int) bool {
		if depth == n {
			return true
		}
		for u := dag.Node(0); int(u) < n; u++ {
			if placed[u] || indeg[u] != 0 {
				continue
			}
			saved := append([]dag.Node(nil), last...)
			if op := c.Op(u); op.Kind == computation.Write {
				last[op.Loc] = u
			}
			ok := true
			for _, l := range locs {
				if o.Get(l, u) != last[l] {
					ok = false
					break
				}
			}
			if ok {
				placed[u] = true
				for _, v := range g.Succs(u) {
					indeg[v]--
				}
				found := place(depth + 1)
				for _, v := range g.Succs(u) {
					indeg[v]++
				}
				placed[u] = false
				if found {
					return true
				}
			}
			copy(last, saved)
		}
		return false
	}
	return place(0)
}
