package memmodel

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/paperfig"
)

func modelByName(t *testing.T, name string) Model {
	t.Helper()
	r, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown model %q", name)
	}
	return r.Model
}

// checkFixture machine-checks the memberships a paper figure claims.
func checkFixture(t *testing.T, fx paperfig.Fixture) {
	t.Helper()
	if err := fx.Obs.Validate(fx.Comp); err != nil {
		t.Fatalf("%s: observer invalid: %v", fx.Name, err)
	}
	for _, name := range fx.InModels {
		if !modelByName(t, name).Contains(fx.Comp, fx.Obs) {
			t.Errorf("%s: expected pair IN %s", fx.Name, name)
		}
	}
	for _, name := range fx.OutModels {
		if modelByName(t, name).Contains(fx.Comp, fx.Obs) {
			t.Errorf("%s: expected pair NOT in %s", fx.Name, name)
		}
	}
}

// Figure 2: a pair in WW and NW but not in WN or NN.
func TestFigure2Memberships(t *testing.T) {
	checkFixture(t, paperfig.Figure2())
}

// Figure 3: a pair in WW and WN but not in NW or NN.
func TestFigure3Memberships(t *testing.T) {
	checkFixture(t, paperfig.Figure3())
}

func TestExplainQDagWitness(t *testing.T) {
	fx := paperfig.Figure3()
	v := explainQDag(PredNN, fx.Comp, fx.Obs)
	if v == nil {
		t.Fatal("expected an NN violation on Figure 3")
	}
	// The violating triple is A ≺ B ≺ C (nodes 1, 2, 3 of the fixture).
	if v.U != 1 || v.V != 2 || v.W != 3 {
		t.Fatalf("violation = %+v, want (1, 2, 3)", v)
	}
	if explainQDag(PredWN, fx.Comp, fx.Obs) != nil {
		t.Fatal("Figure 3 must satisfy WN")
	}
}

func TestBottomTripleViolation(t *testing.T) {
	// Chain u:N -> v:R -> w:R with Φ(v) = A (a parallel write) and
	// Φ(w) = ⊥: the triple (⊥, v, w) violates NN because Φ(⊥) = Φ(w) = ⊥
	// but Φ(v) ≠ ⊥. This exercises the u = ⊥ case of Condition 20.1.
	c := computation.New(1)
	a := c.AddNode(computation.W(0))
	u := c.AddNode(computation.N)
	v := c.AddNode(computation.R(0))
	w := c.AddNode(computation.R(0))
	c.MustAddEdge(u, v)
	c.MustAddEdge(v, w)
	o := observer.New(c)
	o.Set(0, v, a)
	if err := o.Validate(c); err != nil {
		t.Fatal(err)
	}
	if NN.Contains(c, o) {
		t.Fatal("NN must catch the ⊥-triple violation")
	}
	viol := explainQDag(PredNN, c, o)
	if viol == nil || viol.U != observer.Bottom {
		t.Fatalf("expected a ⊥-rooted violation, got %+v", viol)
	}
	// WN exempts it (⊥ is not a write); NW catches only write middles.
	if !WN.Contains(c, o) {
		t.Fatal("WN must exempt the ⊥-rooted triple")
	}
	if !NW.Contains(c, o) {
		t.Fatal("NW must exempt the read-middle triple")
	}
	_ = u
	_ = w
}

// Theorem 21: NN is stronger than Q-dag consistency for every predicate
// Q — checked over random pairs for the four named predicates and for
// pseudo-random predicates.
func TestTheorem21NNStrongest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(rng, 5, 2)
		if observer.Count(c, 200) >= 200 {
			return true
		}
		// A deterministic pseudo-random predicate derived from the seed.
		randPred := Predicate{
			Name: "RAND",
			Holds: func(_ *computation.Computation, l computation.Loc, u, v, w dag.Node) bool {
				h := uint64(seed) * 2654435761
				h ^= uint64(uint32(l))<<48 ^ uint64(uint32(u))<<32 ^ uint64(uint32(v))<<16 ^ uint64(uint32(w))
				h *= 0x9e3779b97f4a7c15
				return h&1 == 0
			},
		}
		models := []Model{NW, WN, WW, QDag(randPred)}
		ok := true
		observer.Enumerate(c, func(o *observer.Observer) bool {
			if !NN.Contains(c, o) {
				return true
			}
			for _, m := range models {
				if !m.Contains(c, o) {
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Strengthening Q weakens the model (remark after Definition 20):
// WW ⊇ WN ⊇ NN and WW ⊇ NW ⊇ NN on random pairs.
func TestQuickQDagMonotoneInPredicate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(rng, 5, 1)
		if observer.Count(c, 200) >= 200 {
			return true
		}
		ok := true
		observer.Enumerate(c, func(o *observer.Observer) bool {
			inNN, inNW, inWN, inWW := NN.Contains(c, o), NW.Contains(c, o), WN.Contains(c, o), WW.Contains(c, o)
			if inNN && (!inNW || !inWN || !inWW) {
				ok = false
				return false
			}
			if (inNW || inWN) && !inWW {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 22: LC ⊆ NN on random pairs.
func TestQuickTheorem22LCSubsetNN(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComputation(rng, 5, 2)
		if observer.Count(c, 200) >= 200 {
			return true
		}
		ok := true
		observer.Enumerate(c, func(o *observer.Observer) bool {
			if LC.Contains(c, o) && !NN.Contains(c, o) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// explainQDag is the violating triple QDagDecide reports, or nil.
func explainQDag(p Predicate, c *computation.Computation, o *observer.Observer) *Violation {
	v, _ := QDagDecide(context.Background(), p, c, o)
	return v
}
