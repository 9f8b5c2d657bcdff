package search

import "repro/internal/dag"

// Assignments enumerates the Cartesian product of the domains in
// lexicographic order (the last domain varies fastest), calling fn
// with a shared assignment slice that must not be retained. It stops
// early when fn returns false and reports whether the enumeration ran
// to completion. Any empty domain makes the product empty. Zero
// domains yield the single empty assignment.
//
// This is the backtracking skeleton behind checker.VerifyModelCtx's
// observer-function sweep, hoisted here so the checker contains no
// private search loop of its own.
func Assignments(domains [][]dag.Node, fn func(assign []dag.Node) bool) bool {
	for _, d := range domains {
		if len(d) == 0 {
			return true
		}
	}
	assign := make([]dag.Node, len(domains))
	idx := make([]int, len(domains))
	for i, d := range domains {
		assign[i] = d[0]
	}
	for {
		if !fn(assign) {
			return false
		}
		// Odometer step: advance the fastest-varying position that has
		// room, resetting everything after it.
		i := len(domains) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(domains[i]) {
				assign[i] = domains[i][idx[i]]
				break
			}
			idx[i] = 0
			assign[i] = domains[i][0]
		}
		if i < 0 {
			return true
		}
	}
}
