package memmodel_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/enum"
	"repro/internal/memmodel"
	"repro/internal/observer"
	"repro/internal/paperfig"
)

// TestDecideByNameMatchesModels checks every registry row against the
// model's other two formulations over the whole universe of
// computations with at most 3 nodes on 1 and 2 locations: the
// DecideByName verdict, the row's Model.Contains, and the row's
// PatternDecider bit must agree on every pair. A row wired to the
// wrong decider or the wrong bit fails here. The explanation artifacts
// must match the verdict: an Order exactly for In verdicts of
// engine-backed rows, per-location sorts exactly for LC In, and a
// violating triple only for Out verdicts.
func TestDecideByNameMatchesModels(t *testing.T) {
	rows := memmodel.Registry()
	names := memmodel.ModelNames()
	if len(rows) != len(names) {
		t.Fatalf("registry has %d rows, ModelNames %d", len(rows), len(names))
	}
	// Models that coincide on the small universe (RA and CAUSAL below
	// 5 nodes) cannot tell their bits apart by verdicts alone, so the
	// bit layout is pinned directly: row i owns bit 1<<i.
	for i, r := range rows {
		if r.Model.Name() != names[i] || r.Bit != 1<<i {
			t.Fatalf("row %d is %s with bit %#x; want %s with bit %#x", i, r.Model.Name(), r.Bit, names[i], 1<<i)
		}
	}
	var all uint16
	for _, r := range rows {
		all |= r.Bit
	}
	ctx := context.Background()
	pd := memmodel.NewPatternDecider()
	for _, locs := range []int{1, 2} {
		pairs := 0
		enum.EachComputationUpTo(3, locs, func(c *computation.Computation) bool {
			pd.Reset(c)
			observer.Enumerate(c, func(o *observer.Observer) bool {
				pairs++
				p := pd.Pattern(o, all)
				for _, r := range rows {
					name := r.Model.Name()
					d, err := memmodel.DecideByName(ctx, name, c, o, memmodel.SearchOptions{})
					if err != nil {
						t.Fatalf("DecideByName(%s): %v", name, err)
					}
					if d.Model != name {
						t.Fatalf("%s: decision labeled %q", name, d.Model)
					}
					if !d.Verdict.Decided {
						t.Fatalf("%s: ungoverned decision came back inconclusive: %v", name, d.Verdict)
					}
					in, bit := r.Model.Contains(c, o), p&r.Bit != 0
					if d.Verdict.In() != in || in != bit {
						t.Fatalf("%s on %v / %v: DecideByName %v, Contains %v, pattern bit %v",
							name, c, o, d.Verdict, in, bit)
					}
					checkDecisionShape(t, r, c, d)
				}
				return true
			})
			return true
		})
		if pairs == 0 {
			t.Fatalf("locs=%d: no pairs enumerated", locs)
		}
	}
}

// checkDecisionShape checks that d carries exactly the explanation its
// row and verdict call for.
func checkDecisionShape(t *testing.T, r memmodel.Row, c *computation.Computation, d memmodel.Decision) {
	t.Helper()
	in := d.Verdict.In()
	if r.Search && in && len(d.Order) != c.NumNodes() {
		t.Fatalf("%s: In verdict with witness order %v on %d nodes", d.Model, d.Order, c.NumNodes())
	}
	if (!r.Search || !in) && d.Order != nil {
		t.Fatalf("%s: unexpected witness order %v (verdict %v)", d.Model, d.Order, d.Verdict)
	}
	if wantLoc := in && d.Model == "LC"; wantLoc != (d.LocOrders != nil) {
		t.Fatalf("%s: per-location sorts present = %v, verdict %v", d.Model, d.LocOrders != nil, d.Verdict)
	}
	if d.Violation != nil && !d.Verdict.Out() {
		t.Fatalf("%s: violating triple on a %v verdict", d.Model, d.Verdict)
	}
}

func TestDecideByNameUnknownModel(t *testing.T) {
	fx := paperfig.Figure2()
	_, err := memmodel.DecideByName(context.Background(), "PSO", fx.Comp, fx.Obs, memmodel.SearchOptions{})
	if err == nil {
		t.Fatal("unknown model name decided without error")
	}
	// The error must be self-describing: it names the offender and
	// enumerates every registered model, so CLI/HTTP callers can fix
	// their request without reading the source.
	msg := err.Error()
	if !strings.Contains(msg, `"PSO"`) {
		t.Errorf("error does not name the unknown model: %q", msg)
	}
	for _, name := range memmodel.ModelNames() {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list registered model %s: %q", name, msg)
		}
	}
}

// TestPredicateByName: each quantified-dag row decides with the
// Condition 20.1 predicate of its own name — its decisions report the
// same violating triple QDagDecide finds for that predicate — and no
// other row reports triples at all.
func TestPredicateByName(t *testing.T) {
	preds := map[string]memmodel.Predicate{
		"NN": memmodel.PredNN, "NW": memmodel.PredNW, "WN": memmodel.PredWN, "WW": memmodel.PredWW,
	}
	ctx := context.Background()
	for _, fx := range []paperfig.Fixture{paperfig.Figure2(), paperfig.Figure3(), paperfig.Dekker()} {
		for _, name := range memmodel.ModelNames() {
			d, err := memmodel.DecideByName(ctx, name, fx.Comp, fx.Obs, memmodel.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			p, ok := preds[name]
			if !ok {
				if d.Violation != nil {
					t.Errorf("%s: non-quantified-dag row reported triple %+v", name, d.Violation)
				}
				continue
			}
			want, _ := memmodel.QDagDecide(ctx, p, fx.Comp, fx.Obs)
			if (want == nil) != (d.Violation == nil) || (want != nil && *want != *d.Violation) {
				t.Errorf("%s: row reported %+v, predicate %s finds %+v", name, d.Violation, p.Name, want)
			}
		}
	}
}

// TestDecideByNameCancelled: a pre-cancelled context must yield a typed
// inconclusive verdict from every decider, not a definitive answer.
func TestDecideByNameCancelled(t *testing.T) {
	fx := paperfig.Figure2()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range memmodel.ModelNames() {
		d, err := memmodel.DecideByName(ctx, name, fx.Comp, fx.Obs, memmodel.SearchOptions{})
		if err != nil {
			t.Fatalf("DecideByName(%s): %v", name, err)
		}
		if !d.Verdict.Inconclusive() {
			t.Errorf("%s: cancelled decision was %v, want inconclusive", name, d.Verdict)
		}
	}
}
