package proccentric

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/checker"
	"repro/internal/computation"
	"repro/internal/trace"
)

func TestComputationShape(t *testing.T) {
	p := StoreBuffering().Program
	c, index := p.Computation()
	if c.NumNodes() != 4 || c.NumLocs() != 2 {
		t.Fatalf("shape: %v", c)
	}
	// Program order edges within each thread, none across.
	if !c.Dag().HasEdge(index[0][0], index[0][1]) || !c.Dag().HasEdge(index[1][0], index[1][1]) {
		t.Fatal("program order edges missing")
	}
	if c.Dag().NumEdges() != 2 {
		t.Fatalf("unexpected cross-thread edges: %v", c.Dag().Edges())
	}
}

func TestTraceConstruction(t *testing.T) {
	l := MessagePassing()
	tr, err := l.Program.Trace(l.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Missing outcome errors.
	if _, err := l.Program.Trace(nil); err == nil {
		t.Fatal("missing outcomes accepted")
	}
	// Undefined write value errors.
	bad := Program{NumLocs: 1, Threads: []Thread{{Wr(0, trace.Undefined)}}}
	if _, err := bad.Trace(nil); err == nil {
		t.Fatal("Undefined write accepted")
	}
}

func TestEachInterleavingCount(t *testing.T) {
	// Two threads of 2 instructions: C(4,2) = 6 interleavings.
	p := StoreBuffering().Program
	if got := p.EachInterleaving(func(map[[2]int]trace.Value) bool { return true }); got != 6 {
		t.Fatalf("interleavings = %d, want 6", got)
	}
	// Early stop.
	n := 0
	p.EachInterleaving(func(map[[2]int]trace.Value) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}

// The litmus suite: every outcome's SC and LC classification must match
// the computation-centric checkers.
func TestLitmusSuite(t *testing.T) {
	for _, l := range All() {
		tr, err := l.Program.Trace(l.Outcome)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if got := verifySC(tr).OK; got != l.AllowSC {
			t.Errorf("%s: SC = %v, want %v (%s)", l.Name, got, l.AllowSC, l.Comment)
		}
		if got := verifyLC(tr).OK; got != l.AllowLC {
			t.Errorf("%s: LC = %v, want %v (%s)", l.Name, got, l.AllowLC, l.Comment)
		}
		// Lamport's interleaving semantics must agree with the SC
		// verdict on processor-centric programs (Section 4).
		if got := l.Program.LamportAllows(l.Outcome); got != l.AllowSC {
			t.Errorf("%s: Lamport = %v, want %v", l.Name, got, l.AllowSC)
		}
	}
}

// Section 4's generalization claim, brute-forced: for random
// straight-line programs and random read outcomes, the
// computation-centric SC checker and direct interleaving simulation
// agree exactly.
func TestQuickSCEqualsLamport(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numLocs := 1 + rng.Intn(2)
		nThreads := 1 + rng.Intn(3)
		p := Program{NumLocs: numLocs}
		writeVals := []trace.Value{1, 2}
		var reads [][2]int
		for t := 0; t < nThreads; t++ {
			var th Thread
			for i := 0; i < 1+rng.Intn(3); i++ {
				l := computation.Loc(rng.Intn(numLocs))
				if rng.Intn(2) == 0 {
					th = append(th, Wr(l, writeVals[rng.Intn(len(writeVals))]))
				} else {
					th = append(th, Rd(l))
					reads = append(reads, [2]int{t, i})
				}
			}
			p.Threads = append(p.Threads, th)
		}
		// Random outcome assignment.
		outcome := make(map[[2]int]trace.Value)
		for _, r := range reads {
			switch rng.Intn(3) {
			case 0:
				outcome[r] = trace.Undefined
			default:
				outcome[r] = writeVals[rng.Intn(len(writeVals))]
			}
		}
		tr, err := p.Trace(outcome)
		if err != nil {
			return false
		}
		return verifySC(tr).OK == p.LamportAllows(outcome)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// LC is weaker than SC on processor-centric programs too: every
// Lamport-allowed outcome is LC-explainable.
func TestQuickLamportImpliesLC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Program{
			NumLocs: 2,
			Threads: []Thread{
				{Wr(0, 1), Rd(1), Rd(0)},
				{Wr(1, 2), Rd(0), Rd(1)},
			},
		}
		// Sample a genuine interleaving outcome.
		var outcomes []map[[2]int]trace.Value
		p.EachInterleaving(func(o map[[2]int]trace.Value) bool {
			cp := make(map[[2]int]trace.Value, len(o))
			for k, v := range o {
				cp[k] = v
			}
			outcomes = append(outcomes, cp)
			return true
		})
		o := outcomes[rng.Intn(len(outcomes))]
		tr, err := p.Trace(o)
		if err != nil {
			return false
		}
		return verifySC(tr).OK && verifyLC(tr).OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// verifySC and verifyLC run the trace checkers without governance.
func verifySC(tr *trace.Trace) checker.Result {
	res, _, _ := checker.VerifySCCtx(context.Background(), tr, checker.SearchOptions{})
	return res
}

func verifyLC(tr *trace.Trace) checker.Result {
	res, _, _ := checker.VerifyLCCtx(context.Background(), tr, checker.SearchOptions{})
	return res
}
