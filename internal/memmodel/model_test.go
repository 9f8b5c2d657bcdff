package memmodel

import (
	"testing"

	"repro/internal/computation"
	"repro/internal/observer"
)

// chainWR builds 0:W(0) -> 1:R(0).
func chainWR() (*computation.Computation, *observer.Observer) {
	c := computation.New(1)
	a := c.AddNode(computation.W(0))
	b := c.AddNode(computation.R(0))
	c.MustAddEdge(a, b)
	o := observer.New(c)
	o.Set(0, b, a)
	return c, o
}

func TestTrivialAcceptsValidRejectsInvalid(t *testing.T) {
	c, o := chainWR()
	if !Trivial.Contains(c, o) {
		t.Fatal("Trivial must accept a valid pair")
	}
	bad := observer.New(c)
	bad.Set(0, 0, observer.Bottom) // write not observing itself
	if Trivial.Contains(c, bad) {
		t.Fatal("Trivial must reject an invalid observer")
	}
}

func TestIntersectionUnion(t *testing.T) {
	c, o := chainWR()
	never := Func("NEVER", func(*computation.Computation, *observer.Observer) bool { return false })

	inter := Intersection("X", Trivial, never)
	if inter.Contains(c, o) {
		t.Fatal("intersection with empty model must be empty")
	}
	if inter.Name() != "X" {
		t.Fatal("name lost")
	}
	if Intersection("E").Contains(c, o) {
		t.Fatal("empty intersection must reject (no operands)")
	}

	uni := Union("U", never, Trivial)
	if !uni.Contains(c, o) {
		t.Fatal("union with Trivial must accept valid pairs")
	}
	if Union("E").Contains(c, o) {
		t.Fatal("empty union must reject")
	}
}

func TestFuncWrapsValidity(t *testing.T) {
	c, _ := chainWR()
	always := Func("ALWAYS", func(*computation.Computation, *observer.Observer) bool { return true })
	bad := observer.New(c)
	bad.Set(0, 1, 1) // read observing itself: invalid
	if always.Contains(c, bad) {
		t.Fatal("Func must reject invalid observers before calling the predicate")
	}
}

func TestStronger(t *testing.T) {
	c, o := chainWR()
	universe := []Pair{{C: c, O: o}}
	never := Func("NEVER", func(*computation.Computation, *observer.Observer) bool { return false })
	if !stronger(never, Trivial, universe) {
		t.Fatal("empty model is stronger than Trivial")
	}
	if !stronger(SC, LC, universe) {
		t.Fatal("SC stronger than LC on this universe")
	}
	if stronger(Trivial, never, universe) {
		t.Fatal("Trivial is not stronger than the empty model")
	}
}

// stronger reports whether a is stronger than b (Definition 4: a ⊆ b)
// over the given finite universe of pairs.
func stronger(a, b Model, universe []Pair) bool {
	for _, p := range universe {
		if a.Contains(p.C, p.O) && !b.Contains(p.C, p.O) {
			return false
		}
	}
	return true
}
