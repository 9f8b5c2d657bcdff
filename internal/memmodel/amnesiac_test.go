package memmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
)

// Machine-checked proof that LC ⊊ WN*, step by step.
//
// Step 1: Amnesiac ⊆ WN — the amnesiac observer of every computation is
// WN-dag consistent (checked over random computations; the argument is
// that no node other than a write u itself ever observes u).
func TestAmnesiacSubsetOfWN(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(rng, 8, 2)
		o := observer.New(c) // the amnesiac observer
		if !Amnesiac.Contains(c, o) {
			return false
		}
		return WN.Contains(c, o)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Step 2: Amnesiac is constructible — it passes the full Theorem 10
// criterion (every one-node extension, every predecessor set) at random
// pairs, and is monotonic so Theorem 12 applies too.
func TestAmnesiacConstructible(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		c := randomComputation(rng, 5, 2)
		o := observer.New(c)
		ops := computation.AllOps(c.NumLocs())
		if !MonotonicAt(Amnesiac, c, o) {
			t.Fatalf("Amnesiac not monotonic at %v", c)
		}
		if ext, ok := ConstructibleAtFull(Amnesiac, c, o, ops); !ok {
			t.Fatalf("Amnesiac failed to extend across %v", ext)
		}
	}
}

// Step 3: the amnesiac pair on W(0) -> N is not in LC (the no-op
// follows the write, so every serialization makes it observe the
// write), and by Steps 1-2 with Theorem 9.3 it IS in WN*.
// Conclusion: LC ⊊ WN*.
func TestLCStrictlyInsideWNStar(t *testing.T) {
	c := computation.New(1)
	w := c.AddNode(computation.W(0))
	nn := c.AddNode(computation.N)
	c.MustAddEdge(w, nn)
	o := observer.New(c)
	if !Amnesiac.Contains(c, o) {
		t.Fatal("pair must be amnesiac")
	}
	if !WN.Contains(c, o) {
		t.Fatal("pair must be in WN")
	}
	if LC.Contains(c, o) {
		t.Fatal("pair must not be in LC")
	}
	// Direct fixpoint confirmation: the pair survives pruning in a
	// universe around it (its augmentations, and theirs), because the
	// amnesiac extension always exists.
	ops := computation.AllOps(1)
	universe := []*computation.Computation{c}
	frontier := []*computation.Computation{c}
	for depth := 0; depth < 2; depth++ {
		var next []*computation.Computation
		for _, f := range frontier {
			for _, op := range ops {
				aug, _ := f.Augment(op)
				universe = append(universe, aug)
				next = append(next, aug)
			}
		}
		frontier = next
	}
	star := ConstructibleVersion(WN, universe, ops)
	if !star.Contains(c, o) {
		t.Fatal("amnesiac pair must survive WN pruning")
	}
}

// The same argument does NOT go through for NW: the amnesiac observer
// violates NW as soon as a non-write follows a write (triple ⊥ ≺ W ≺ N).
func TestAmnesiacNotInNW(t *testing.T) {
	c := computation.New(1)
	w := c.AddNode(computation.W(0))
	nn := c.AddNode(computation.N)
	c.MustAddEdge(w, nn)
	o := observer.New(c)
	if NW.Contains(c, o) {
		t.Fatal("amnesiac pair with N after W must violate NW")
	}
	if NN.Contains(c, o) {
		t.Fatal("... and NN")
	}
	v := explainQDag(PredNW, c, o)
	if v == nil || v.U != observer.Bottom || v.V != w || v.W != nn {
		t.Fatalf("violation = %+v, want (⊥, W, N)", v)
	}
}

func TestAmnesiacRejectsOtherObservers(t *testing.T) {
	c := computation.New(1)
	w := c.AddNode(computation.W(0))
	r := c.AddNode(computation.R(0))
	c.MustAddEdge(w, r)
	o := observer.New(c)
	o.Set(0, r, w)
	if Amnesiac.Contains(c, o) {
		t.Fatal("observing a write is not amnesiac")
	}
	bad := observer.New(c)
	bad.Set(0, w, observer.Bottom)
	if Amnesiac.Contains(c, bad) {
		t.Fatal("invalid observer accepted")
	}
	_ = dag.None
}
