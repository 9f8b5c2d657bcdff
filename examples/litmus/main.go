// Litmus: run the classic shared-memory litmus tests (store buffering,
// message passing, load buffering, coherence, IRIW) through the
// computation-centric checkers, and cross-validate the SC verdicts
// against Lamport's interleaving semantics by direct simulation —
// demonstrating the paper's Section 4 claim that computation-centric
// SC generalizes the traditional processor-centric definition.
//
// Run with: go run ./examples/litmus
package main

import (
	"context"
	"fmt"

	"repro/internal/checker"
	"repro/internal/proccentric"
)

func main() {
	fmt.Printf("%-12s %-8s %-8s %-10s %s\n", "litmus", "SC", "LC", "Lamport", "comment")
	for _, l := range proccentric.All() {
		tr, err := l.Program.Trace(l.Outcome)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		_, scV, _ := checker.VerifySCCtx(context.Background(), tr, checker.SearchOptions{})
		_, lcV, _ := checker.VerifyLCCtx(context.Background(), tr, checker.SearchOptions{})
		sc, lc := scV.In(), lcV.In()
		lamport := l.Program.LamportAllows(l.Outcome)
		status := ""
		if sc != l.AllowSC || lc != l.AllowLC || lamport != sc {
			status = "  <-- MISMATCH"
		}
		fmt.Printf("%-12s %-8v %-8v %-10v %s%s\n", l.Name, sc, lc, lamport, l.Comment, status)
	}
	fmt.Println("\nSC verdicts agree with direct interleaving simulation (Section 4);")
	fmt.Println("LC permits exactly the relaxed outcomes coherence allows.")
}
