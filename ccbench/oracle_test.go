package main

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/observer"
	"repro/internal/serve"
)

const litmusDir = "../testdata/litmus"

// The oracle reproduces the golden SC and LC columns of the litmus corpus.
func TestOracleMatchesLitmusGolden(t *testing.T) {
	cases, err := litmusCases(litmusDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		var req serve.CheckRequest
		if err := decodeStrict(c.raw, &req); err != nil {
			t.Fatal(err)
		}
		named, o, err := observer.ParsePairString(req.Pair)
		if err != nil {
			t.Fatal(err)
		}
		sc, lc := oracle(named.Comp, o)
		if sc != c.want["SC"] || lc != c.want["LC"] {
			t.Errorf("%s: oracle SC=%v LC=%v, golden SC=%v LC=%v", c.label, sc, lc, c.want["SC"], c.want["LC"])
		}
	}
}

// The oracle and the engine-backed deciders agree on perturbed pairs,
// and every last-writer pair is in SC and LC.
func TestOracleMatchesDeciders(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	in, out := 0, 0
	for i := 0; i < 300; i++ {
		named, o, ok := perturbedPair(r)
		if !ok {
			continue
		}
		sc, lc := oracle(named.Comp, o)
		_, scV, _ := memmodel.SCDecide(context.Background(), named.Comp, o, memmodel.SearchOptions{})
		_, lcV := memmodel.LCDecide(context.Background(), named.Comp, o)
		if sc != scV.In() || lc != lcV.In() {
			t.Fatalf("pair %d: oracle SC=%v LC=%v, deciders SC=%s LC=%s\n%s", i, sc, lc, scV, lcV, named.FormatString())
		}
		if sc {
			in++
		} else {
			out++
		}
	}
	if in == 0 || out == 0 {
		t.Errorf("perturbed pairs are all on one side of SC (in=%d out=%d)", in, out)
	}
	for i := 0; i < 50; i++ {
		named := randomComputation(r, 4+r.Intn(6), 2, 0.3)
		o := observer.FromLastWriter(named.Comp, randomTopoSort(r, named.Comp))
		if sc, lc := oracle(named.Comp, o); !sc || !lc {
			t.Fatalf("last-writer pair judged SC=%v LC=%v\n%s", sc, lc, named.FormatString())
		}
	}
}
