// Backer: run the BACKER coherence algorithm (Cilk's distributed shared
// memory) on a simulated multiprocessor executing a divide-and-conquer
// computation, then verify post mortem that the execution was location
// consistent — the property [Luc97] proves and Section 7 of the paper
// relies on. Finally, break the protocol on purpose and watch the
// checker catch it.
//
// Run with: go run ./examples/backer
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/backer"
	"repro/internal/checker"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/sched"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// A Cilk-style spawn tree whose nodes read and write two shared
	// locations.
	g := dag.SpawnTree(6)
	ops := make([]computation.Op, g.NumNodes())
	for i := range ops {
		l := computation.Loc(rng.Intn(2))
		switch rng.Intn(3) {
		case 0:
			ops[i] = computation.W(l)
		default:
			ops[i] = computation.R(l)
		}
	}
	c := computation.MustFrom(g, ops, 2)
	fmt.Printf("computation: %d nodes, T1=%d, T∞=%d\n",
		c.NumNodes(), sched.Work(c, nil), sched.Span(c, nil))

	for _, P := range []int{1, 2, 4, 8} {
		s, err := sched.WorkStealing(c, P, nil, rng)
		check(err)
		res, err := backer.Run(s, nil)
		check(err)
		_, lc, _ := checker.VerifyLCCtx(context.Background(), res.Trace, checker.SearchOptions{})
		// SC verification is NP-complete; try the execution order as a
		// witness first, then a budgeted search.
		sc := "true"
		if !checker.OrderExplains(res.Trace, s.Order) {
			_, v, _ := checker.VerifySCCtx(context.Background(), res.Trace, checker.SearchOptions{Budget: 200000})
			switch {
			case v.Out():
				sc = "false"
			case !v.In():
				sc = "unknown"
			}
		}
		fmt.Printf("P=%d: makespan=%3d steals=%2d flushes=%3d fetches=%3d  LC=%v SC=%s\n",
			P, s.Makespan, s.Steals, res.Stats.Flushes, res.Stats.Fetches, lc.In(), sc)
		if !lc.In() {
			fmt.Println("ERROR: healthy BACKER must maintain location consistency")
			return
		}
	}

	// Fault injection: skip most reconciles and flushes.
	fmt.Println("\nfault injection (60% of protocol steps skipped):")
	detected := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		s, err := sched.WorkStealing(c, 4, nil, rng)
		check(err)
		faults := &backer.Faults{SkipReconcile: 0.6, SkipFlush: 0.6, Rng: rng}
		res, err := backer.Run(s, faults)
		check(err)
		if _, v, _ := checker.VerifyLCCtx(context.Background(), res.Trace, checker.SearchOptions{}); !v.In() {
			detected++
		}
	}
	fmt.Printf("checker flagged %d/%d faulty executions as LC violations\n", detected, trials)
}

// check aborts the example on a simulator error (invalid parameters).
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "backer example:", err)
		os.Exit(1)
	}
}
