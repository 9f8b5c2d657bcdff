package memmodel

// digraphScratch is the reusable scratch of the polynomial checks that
// reduce to acyclicity of a small digraph over dense indices: LC's
// forced write order per location, RA's modification order per
// location and CAUSAL's linearization of each node's past. The
// PatternDecider keeps one across pairs; the standalone deciders use a
// fresh one per call.
type digraphScratch struct {
	idx   []int32   // node -> dense index, filled by the check
	adj   [][]int32 // the digraph over dense indices
	color []int8    // DFS colors
}

// newDigraphScratch returns scratch for computations of n nodes.
func newDigraphScratch(n int) *digraphScratch {
	g := &digraphScratch{}
	g.reset(n)
	return g
}

// reset sizes the node index for computations of n nodes.
func (g *digraphScratch) reset(n int) {
	g.idx = resize(g.idx, n)
}

// digraph returns k empty adjacency lists over dense indices, reusing
// g's buffers.
func (g *digraphScratch) digraph(k int) [][]int32 {
	g.adj = resize(g.adj, k)
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	return g.adj
}

// acyclic reports whether the digraph last returned by digraph has no
// directed cycle.
func (g *digraphScratch) acyclic() bool {
	g.color = resize(g.color, len(g.adj))
	clear(g.color)
	for v := range g.adj {
		if g.color[v] == 0 && !acyclicFrom(int32(v), g.adj, g.color) {
			return false
		}
	}
	return true
}

// acyclicFrom is the white(0)/gray(1)/black(2) DFS behind acyclic.
func acyclicFrom(v int32, adj [][]int32, color []int8) bool {
	color[v] = 1
	for _, w := range adj[v] {
		switch color[w] {
		case 0:
			if !acyclicFrom(w, adj, color) {
				return false
			}
		case 1:
			return false
		}
	}
	color[v] = 2
	return true
}
