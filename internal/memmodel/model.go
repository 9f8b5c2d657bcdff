// Package memmodel implements the paper's primary contribution: the
// computation-centric theory of memory models (Frigo & Luchangco,
// SPAA 1998).
//
// A memory model (Definition 3) is a set of (computation, observer
// function) pairs containing the empty pair. This package provides
// decision procedures for the models the paper studies —
//
//   - SC, sequential consistency (Definition 17);
//   - LC, location consistency, a.k.a. coherence (Definition 18);
//   - Q-dag consistency (Definition 20) for the predicates NN, NW, WN,
//     WW of Section 5 and for arbitrary user predicates;
//
// as well as machine checks for the abstract properties of Sections 2–3:
// completeness, monotonicity (Definition 5), constructibility
// (Definition 6, via the single-extension criterion of Theorem 10 and
// the augmentation criterion of Theorem 12), and an engine that computes
// the constructible version Δ* (Definition 8) of a model over a bounded
// universe of computations.
package memmodel

import (
	"repro/internal/computation"
	"repro/internal/observer"
)

// Model is a computation-centric memory model: a decidable set of
// (computation, observer function) pairs. Contains must return false
// when o is not a valid observer function for c, so that every Model
// value denotes a memory model in the sense of Definition 3.
type Model interface {
	// Name returns a short identifier such as "SC" or "NN".
	Name() string
	// Contains reports whether (c, o) is in the model.
	Contains(c *computation.Computation, o *observer.Observer) bool
}

// Pair is one element of a memory model.
type Pair struct {
	C *computation.Computation
	O *observer.Observer
}

// Intersection returns the model a ∩ b ∩ ..., which is stronger than
// each operand. The intersection of memory models is a memory model
// (the empty pair is in all of them).
func Intersection(name string, models ...Model) Model {
	return intersection{name: name, models: models}
}

type intersection struct {
	name   string
	models []Model
}

func (m intersection) Name() string { return m.name }

func (m intersection) Contains(c *computation.Computation, o *observer.Observer) bool {
	for _, sub := range m.models {
		if !sub.Contains(c, o) {
			return false
		}
	}
	return len(m.models) > 0
}

// Union returns the model a ∪ b ∪ ..., which is weaker than each
// operand. Lemma 7 shows unions preserve constructibility.
func Union(name string, models ...Model) Model {
	return union{name: name, models: models}
}

type union struct {
	name   string
	models []Model
}

func (m union) Name() string { return m.name }

func (m union) Contains(c *computation.Computation, o *observer.Observer) bool {
	for _, sub := range m.models {
		if sub.Contains(c, o) {
			return true
		}
	}
	return false
}

// Func adapts a predicate to the Model interface. The predicate may
// assume the observer is valid for the computation; Func wraps it with
// the validity check so the result is a well-formed memory model.
func Func(name string, contains func(c *computation.Computation, o *observer.Observer) bool) Model {
	return funcModel{name: name, fn: contains}
}

type funcModel struct {
	name string
	fn   func(*computation.Computation, *observer.Observer) bool
}

func (m funcModel) Name() string { return m.name }

func (m funcModel) Contains(c *computation.Computation, o *observer.Observer) bool {
	return o.Validate(c) == nil && m.fn(c, o)
}

// Trivial is the weakest memory model: all pairs with a valid observer
// function. Every model is stronger than Trivial.
var Trivial Model = funcModel{
	name: "TRIVIAL",
	fn:   func(*computation.Computation, *observer.Observer) bool { return true },
}
