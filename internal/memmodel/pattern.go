package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
)

// This file implements the pooled single-pass membership decider the
// symmetry-reduced lattice sweep runs per pair: one 9-bit pattern
// holding membership of (c, o) in every registry model the caller
// needs at once, computed without the per-pair allocations (candidate
// slices, write index maps, witness sorts, happens-before sets) the
// individual Contains calls pay. On the exhaustive sweeps this
// replaces two independent model decisions per lattice edge and pair
// with one fused scan, and a sweep that reads only some bits (the
// two-location SC/LC sweep) pays only for those.
//
// Two structural facts keep it exact rather than heuristic:
//
//   - SC ⊆ LC holds by definition, not by theorem: an SC witness sort
//     restricted to any one location witnesses that location's LC
//     serialization. A pair out of LC is therefore out of SC with no
//     search. (The converse inclusion is what the experiments check;
//     nothing here assumes it.)
//
//   - With a single location the SC and LC membership questions are
//     literally the same quantifier ("one sort realizing Φ at every
//     location" = "one sort realizing Φ at the only location"), so
//     L=1 sweeps — the big ones — never touch the exponential engine.
//     With L ≥ 2 and the pair in LC, SC falls back to the engine.
//
// The decider assumes o is a valid observer for c (observer.Enumerate
// yields only valid observers; Validate costs more than the rest of
// the scan combined). The differential tests pin the pattern bits to
// the Contains implementations over the full n ≤ 4 universe, and every
// demand mask to the full pattern.

// Pattern bits, in registry order (Row.Bit). The hardware/language models
// (TSO, RA, CAUSAL) extend the original six Figure-1 bits without
// renumbering them, so persisted counts stay comparable.
const (
	PatternSC uint16 = 1 << iota
	PatternLC
	PatternNN
	PatternNW
	PatternWN
	PatternWW
	PatternTSO
	PatternRA
	PatternCAUSAL
	// PatternAll is the pattern of a pair in every Figure-1 model (the
	// paper's lattice; the extension bits are deliberately excluded so
	// Figure-1 census comparisons keep their meaning).
	PatternAll = PatternSC | PatternLC | PatternNN | PatternNW | PatternWN | PatternWW
)

// The bit groups Pattern decides together.
const (
	patternQdag = PatternNN | PatternNW | PatternWN | PatternWW
	patternHB   = PatternTSO | PatternRA | PatternCAUSAL
)

// PatternDecider computes Figure-1 membership patterns for the
// observers of one computation at a time. Reset once per computation,
// then Pattern once per observer; buffers are reused across both. Not
// safe for concurrent use.
type PatternDecider struct {
	c       *computation.Computation
	cl      *dag.Closure
	n       int
	numLocs int
	writers [][]dag.Node // per location, from locWriters

	hb hbRel          // happens-before of the current pair
	g  digraphScratch // the LC, RA and CAUSAL checks' digraph
}

// NewPatternDecider returns a decider; the L ≥ 2 SC fallback and the
// TSO search run with default engine options.
func NewPatternDecider() *PatternDecider { return &PatternDecider{} }

// Reset points the decider at a computation.
func (pd *PatternDecider) Reset(c *computation.Computation) {
	pd.c = c
	pd.cl = c.Closure()
	pd.n = c.NumNodes()
	pd.numLocs = c.NumLocs()
	pd.writers = locWriters(c)
	pd.hb.reset(c)
	pd.g.reset(pd.n)
}

// Pattern returns the membership pattern of (c, o) for a valid
// observer o of the Reset computation, restricted to the bits in need:
// every bit outside need is 0, and only the work those bits read is
// done. The Q-dag scan runs only for NN/NW/WN/WW, the location
// serialization only for SC/LC (LC is decided whenever SC is: a pair
// out of LC is out of SC with no search), and the happens-before
// relation is built only for TSO/RA/CAUSAL, once for all three.
func (pd *PatternDecider) Pattern(o *observer.Observer, need uint16) uint16 {
	var pattern uint16
	if need&patternQdag != 0 {
		pattern |= pd.qdagBits(o)
	}
	sc := false
	if need&(PatternSC|PatternLC) != 0 && pd.lcOK(o) {
		pattern |= PatternLC
		// One location: SC and LC coincide.
		if need&PatternSC != 0 && (pd.numLocs <= 1 || searchLastWriter(context.Background(), pd.c, o, allLocs(pd.c), SearchOptions{}).Found) {
			sc = true
			pattern |= PatternSC
		}
	}
	// The extension models share one happens-before relation; SC ⊆ TSO
	// spares the engine when the pair is already known in.
	if need&patternHB != 0 && pd.hb.build(o) {
		if need&PatternRA != 0 && pd.hb.raCheck(context.Background(), o, pd.writers, &pd.g).In() {
			pattern |= PatternRA
		}
		if need&PatternCAUSAL != 0 && pd.hb.causalCheck(context.Background(), o, pd.writers, &pd.g).In() {
			pattern |= PatternCAUSAL
		}
		if need&PatternTSO != 0 {
			if sc {
				pattern |= PatternTSO
			} else if spec, feasible := tsoSpec(pd.c, o); feasible && search.Run(spec, SearchOptions{}).Found {
				pattern |= PatternTSO
			}
		}
	}
	return pattern & need
}

// qdagBits evaluates all four Q-dag consistency predicates in one scan
// over the violation triples u ≺ v ≺ w, Φ(l,u) = Φ(l,w) ≠ Φ(l,v):
// every such triple violates NN; it violates NW/WN/WW exactly when the
// corresponding side conditions (v resp. u writes l) hold. The scan
// stops once all four are violated.
func (pd *PatternDecider) qdagBits(o *observer.Observer) uint16 {
	var viol uint16
	for l := computation.Loc(0); int(l) < pd.numLocs; l++ {
		for vi := 0; vi < pd.n && viol != patternQdag; vi++ {
			v := dag.Node(vi)
			phiV := o.Get(l, v)
			vWrites := pd.c.Op(v).IsWriteTo(l)
			// A triple at this v can only add these bits:
			vAdds := PatternNN | PatternWN
			if vWrites {
				vAdds |= PatternNW | PatternWW
			}
			if vAdds&^viol == 0 {
				continue
			}
			// u = ⊥ first, then the strict ancestors of v. A ⊥ triple
			// can settle NN/NW but never WN/WW, so the ancestors still
			// run when a writer u could add bits.
			pd.scanW(o, l, observer.Bottom, v, phiV, false, &viol)
			if vAdds&^viol == 0 {
				continue
			}
			anc := pd.cl.Ancestors(v)
			anc.ForEach(func(ui int) bool {
				u := dag.Node(ui)
				uWrites := pd.c.Op(u).IsWriteTo(l)
				// This u can only add NN (+NW if vWrites) unless it
				// writes; skip once those are settled.
				uAdds := PatternNN
				if vWrites {
					uAdds |= PatternNW
				}
				if uWrites {
					uAdds |= PatternWN
					if vWrites {
						uAdds |= PatternWW
					}
				}
				if uAdds&^viol == 0 {
					return true
				}
				pd.scanW(o, l, u, v, phiV, uWrites, &viol)
				return viol != patternQdag
			})
		}
	}
	return patternQdag &^ viol
}

// scanW looks for a descendant w of v with Φ(l,w) = Φ(l,u) ≠ Φ(l,v)
// and accumulates the violated predicates. Reports whether the (u, v)
// pair is settled (a violating w was found).
func (pd *PatternDecider) scanW(o *observer.Observer, l computation.Loc, u, v dag.Node, phiV dag.Node, uWrites bool, viol *uint16) bool {
	phiU := o.Get(l, u)
	if phiU == phiV {
		return false
	}
	found := false
	pd.cl.Descendants(v).ForEach(func(wi int) bool {
		if o.Get(l, dag.Node(wi)) != phiU {
			return true
		}
		found = true
		return false
	})
	if !found {
		return false
	}
	*viol |= PatternNN
	vWrites := pd.c.Op(v).IsWriteTo(l)
	if vWrites {
		*viol |= PatternNW
	}
	if uWrites {
		*viol |= PatternWN
		if vWrites {
			*viol |= PatternWW
		}
	}
	return true
}

// lcOK is the feasibility core of the LC decider: for every location,
// the observer's pins admit a serialization. It mirrors SerializeLoc's
// reduction — direct contradictions, then acyclicity of the forced
// write-order digraph — without materializing the witness sort or any
// per-call maps.
func (pd *PatternDecider) lcOK(o *observer.Observer) bool {
	for l := computation.Loc(0); int(l) < pd.numLocs; l++ {
		if !pd.lcLocOK(o, l) {
			return false
		}
	}
	return true
}

func (pd *PatternDecider) lcLocOK(o *observer.Observer, l computation.Loc) bool {
	writers := pd.writers[l]
	k := len(writers)
	widx := pd.g.idx // node -> dense writer index at l
	for i, w := range writers {
		widx[w] = int32(i)
	}
	// Direct contradictions. Every node is pinned (writes to l to
	// themselves, everything else to Φ(l,u)), so a node observing ⊥
	// fails the moment any ancestor observes a write — in particular
	// when a writer precedes it — and a node may not observe a write it
	// precedes ("the future").
	for ui := 0; ui < pd.n; ui++ {
		u := dag.Node(ui)
		if pd.c.Op(u).IsWriteTo(l) {
			continue
		}
		want := o.Get(l, u)
		if want == observer.Bottom {
			bad := false
			pd.cl.Ancestors(u).ForEach(func(ai int) bool {
				if o.Get(l, dag.Node(ai)) != observer.Bottom {
					bad = true
					return false
				}
				return true
			})
			if bad {
				return false
			}
			continue
		}
		if pd.cl.Precedes(u, want) {
			return false
		}
	}
	if k <= 1 {
		return true // at most one write: no order left to constrain
	}
	// Forced write-order digraph over the writers (see SerializeLoc's
	// derivation): closure order among writers; for a node pinned to
	// wi, writers preceding the node land before wi and writers
	// following it land after; dag order between pinned nodes orders
	// their pins.
	adj := pd.g.digraph(k)
	addEdge := func(a, b int32) {
		if a != b {
			adj[a] = append(adj[a], b)
		}
	}
	for i, w := range writers {
		for j, x := range writers {
			if i != j && pd.cl.Precedes(w, x) {
				addEdge(int32(i), int32(j))
			}
		}
	}
	for ui := 0; ui < pd.n; ui++ {
		u := dag.Node(ui)
		if pd.c.Op(u).IsWriteTo(l) {
			continue
		}
		want := o.Get(l, u)
		if want == observer.Bottom {
			continue
		}
		wi := widx[want]
		for j, x := range writers {
			if int32(j) == wi {
				continue
			}
			if pd.cl.Precedes(x, u) {
				addEdge(int32(j), wi)
			}
			if pd.cl.Precedes(u, x) {
				addEdge(wi, int32(j))
			}
		}
		// u ≺ v with v pinned to a write: wi at-or-before Φ(l,v).
		pd.cl.Descendants(u).ForEach(func(vi int) bool {
			v := dag.Node(vi)
			if pd.c.Op(v).IsWriteTo(l) {
				return true // covered by the writer loops above
			}
			if wv := o.Get(l, v); wv != observer.Bottom {
				addEdge(wi, widx[wv])
			}
			return true
		})
	}
	return pd.g.acyclic()
}
