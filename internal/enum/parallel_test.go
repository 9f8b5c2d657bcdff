package enum

import (
	"context"
	"testing"

	"repro/internal/computation"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// The parallel sweep must produce exactly the sequential counts.
func TestCompareParallelMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		seq := Compare(memmodel.LC, memmodel.NN, 3, 1)
		par := compareParallel(memmodel.LC, memmodel.NN, 3, 1, workers)
		if par.AOnly != seq.AOnly || par.BOnly != seq.BOnly || par.Both != seq.Both {
			t.Fatalf("workers=%d: parallel %+v != sequential %+v", workers, par, seq)
		}
	}
}

func TestCompareParallelWitnesses(t *testing.T) {
	par := compareParallel(memmodel.SC, memmodel.LC, 2, 2, 3)
	if !par.StrictlyStronger() {
		t.Fatalf("SC vs LC: %+v", par)
	}
	if par.WitnessBOnly == nil {
		t.Fatal("strictness without witness")
	}
	// The witness really is in LC \ SC.
	if memmodel.SC.Contains(par.WitnessBOnly.C, par.WitnessBOnly.O) ||
		!memmodel.LC.Contains(par.WitnessBOnly.C, par.WitnessBOnly.O) {
		t.Fatal("witness misclassified")
	}
}

// compareParallel runs the parallel compare without governance.
func compareParallel(a, b memmodel.Model, maxNodes, numLocs, workers int) Relation {
	r, _ := CompareParallelObs(context.Background(), a, b, maxNodes, numLocs, workers, nil)
	return r
}

// witnessKey fingerprints a witness pair for cross-run comparison.
func witnessKey(p *memmodel.Pair) string {
	if p == nil {
		return "<none>"
	}
	return p.C.String() + " / " + p.O.String()
}

// The reported witness must be a pure function of (universe, worker
// count): repeated runs at the same worker count may not flap. This
// regression-tests the completion-order merge bug — the old channel
// merge produced whichever shard's witness arrived first, so WN-vs-NN
// (witnesses on both sides, spread across shards) flapped under
// scheduler noise. 10 repetitions under -race gives the scheduler
// ample room to expose any order dependence.
func TestCompareParallelWitnessDeterminism(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		var wantA, wantB string
		for rep := 0; rep < 10; rep++ {
			// NW vs WN on the n=4, L=1 universe is incomparable (112 vs
			// 6786 one-sided pairs), so both witnesses exist and the
			// one-sided pairs are spread across many shards.
			r := compareParallel(memmodel.NW, memmodel.WN, 4, 1, workers)
			if r.WitnessAOnly == nil || r.WitnessBOnly == nil {
				t.Fatalf("workers=%d: NW vs WN should be incomparable with witnesses: %+v", workers, r)
			}
			gotA, gotB := witnessKey(r.WitnessAOnly), witnessKey(r.WitnessBOnly)
			if rep == 0 {
				wantA, wantB = gotA, gotB
				continue
			}
			if gotA != wantA || gotB != wantB {
				t.Fatalf("workers=%d rep=%d: witness flapped:\n  A: %s -> %s\n  B: %s -> %s",
					workers, rep, wantA, gotA, wantB, gotB)
			}
		}
	}
}

func TestCountPairsParallel(t *testing.T) {
	seq := EachPair(3, 1, func(*computation.Computation, *observer.Observer) bool { return true })
	for _, workers := range []int{0, 1, 4} {
		if got := CountPairsParallel(3, 1, workers); got != seq {
			t.Fatalf("workers=%d: %d != %d", workers, got, seq)
		}
	}
}
