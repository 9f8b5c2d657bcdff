package memmodel

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/observer"
	"repro/internal/search"
)

// This file is the governed front door to the deciders: every model
// membership question has one context-aware decider returning a typed
// three-valued Verdict instead of a bare bool, so callers can tell "not
// in the model" apart from "the search was stopped by a deadline,
// budget, or cancellation before it could decide". The bool-returning
// Model.Contains methods delegate with context.Background(). The
// registry below lists every model once; each frontend reaches the
// deciders through it.

// Verdict is the three-valued decision outcome (In / Out /
// Inconclusive with a machine-readable StopReason).
type Verdict = search.Verdict

// StopReason says why a decision came back inconclusive.
type StopReason = search.StopReason

// SCDecide decides (c, o) ∈ SC under ctx: cancellation or deadline
// expiry stops the search promptly and yields an inconclusive verdict,
// as does exhausting opts.Budget. A definitive In verdict comes with a
// witnessing sort. An observer that fails validation is definitively
// Out (it is not an observer function for c at all).
func SCDecide(ctx context.Context, c *computation.Computation, o *observer.Observer, opts SearchOptions) ([]dag.Node, Verdict, SearchStats) {
	if o.Validate(c) != nil {
		return nil, search.VerdictOut(), SearchStats{}
	}
	res := searchLastWriter(ctx, c, o, allLocs(c), opts)
	return res.Order, res.Verdict(), res.Stats
}

// LCDecide decides (c, o) ∈ LC under ctx. The per-location reduction is
// polynomial (SerializeLoc), so ctx is polled between locations; a
// cancelled run reports which governor fired. A definitive In verdict
// comes with one witnessing sort per location.
func LCDecide(ctx context.Context, c *computation.Computation, o *observer.Observer) ([][]dag.Node, Verdict) {
	if o.Validate(c) != nil {
		return nil, search.VerdictOut()
	}
	sorts := make([][]dag.Node, c.NumLocs())
	for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
		if err := ctx.Err(); err != nil {
			return nil, search.VerdictInconclusive(search.ContextStopReason(err))
		}
		loc := l
		order, ok := SerializeLoc(c, loc, func(u dag.Node) (dag.Node, bool) {
			return o.Get(loc, u), true
		})
		if !ok {
			return nil, search.VerdictOut()
		}
		sorts[l] = order
	}
	return sorts, search.VerdictIn()
}

// QDagDecide decides (c, o) ∈ QDag(p) under ctx. The scan is polynomial
// per location/node pair, so ctx is polled once per outer node
// iteration. A definitive Out verdict comes with the witnessing
// violation triple.
func QDagDecide(ctx context.Context, p Predicate, c *computation.Computation, o *observer.Observer) (*Violation, Verdict) {
	if o.Validate(c) != nil {
		return nil, search.VerdictOut()
	}
	v, err := qdagModel{pred: p}.findViolation(ctx, c, o)
	switch {
	case err != nil:
		return nil, search.VerdictInconclusive(search.ContextStopReason(err))
	case v != nil:
		return v, search.VerdictOut()
	default:
		return nil, search.VerdictIn()
	}
}

// Decision is the structured outcome of one model-membership question:
// the three-valued verdict plus whatever explanation the decider can
// produce (a witness sort for SC, per-location sorts for LC, a
// violating triple for the quantified-dag models) and the engine stats
// when a search ran. The ccmc CLI and the serving layer both render
// from this one shape, so their verdicts and witnesses cannot drift.
type Decision struct {
	// Model is the name the question was asked about.
	Model string
	// Verdict is the three-valued answer.
	Verdict Verdict
	// Stats reports the engine's work (SC and TSO; zero otherwise).
	Stats SearchStats
	// Order is the witnessing sort when SC answered In, or the
	// witnessing memory order when TSO did.
	Order []dag.Node
	// LocOrders holds one witnessing sort per location when LC answered In.
	LocOrders [][]dag.Node
	// Violation is the witnessing triple when a quantified-dag model
	// answered Out.
	Violation *Violation
}

// Row is one model of the registry: the model's set semantics, its
// context-aware decider, and the facts a frontend needs to render a
// Decision without knowing which model produced it.
type Row struct {
	// Model is the membership predicate; Model.Name() is the registry
	// name every frontend accepts.
	Model Model
	// Bit is the model's membership-pattern bit (PatternDecider).
	Bit uint16
	// Search reports whether the decider runs the search engine: its
	// decisions carry engine Stats and, on In, a witnessing Order.
	Search bool
	// OrderName names what Decision.Order holds on an In verdict
	// ("sort" for SC, "memory order" for TSO); empty when the decider
	// yields no order.
	OrderName string
	// ExplainOut, when set, derives a proof of an Out verdict that the
	// Decision itself does not carry (LC's write-order cycle). It
	// returns "" when it finds none.
	ExplainOut func(c *computation.Computation, o *observer.Observer) string

	decide func(ctx context.Context, c *computation.Computation, o *observer.Observer, opts SearchOptions) Decision
}

// registry is the one ordered list of decidable models: the Figure 1
// lattice strongest first — the order the ccmc CLI reports and the
// serving layer defaults to — followed by the hardware/language models
// (TSO, RA, CAUSAL) appended after the paper's six so existing report
// positions and pattern bits stay stable. Row i holds pattern bit 1<<i.
// A new model is one more row.
var registry = [...]Row{
	{Model: SC, Bit: PatternSC, Search: true, OrderName: "sort",
		decide: func(ctx context.Context, c *computation.Computation, o *observer.Observer, opts SearchOptions) (d Decision) {
			d.Order, d.Verdict, d.Stats = SCDecide(ctx, c, o, opts)
			return d
		}},
	{Model: LC, Bit: PatternLC, ExplainOut: explainLC,
		decide: func(ctx context.Context, c *computation.Computation, o *observer.Observer, _ SearchOptions) (d Decision) {
			d.LocOrders, d.Verdict = LCDecide(ctx, c, o)
			return d
		}},
	{Model: NN, Bit: PatternNN, decide: decideQDag(PredNN)},
	{Model: NW, Bit: PatternNW, decide: decideQDag(PredNW)},
	{Model: WN, Bit: PatternWN, decide: decideQDag(PredWN)},
	{Model: WW, Bit: PatternWW, decide: decideQDag(PredWW)},
	{Model: TSO, Bit: PatternTSO, Search: true, OrderName: "memory order",
		decide: func(ctx context.Context, c *computation.Computation, o *observer.Observer, opts SearchOptions) (d Decision) {
			d.Order, d.Verdict, d.Stats = TSODecide(ctx, c, o, opts)
			return d
		}},
	{Model: RA, Bit: PatternRA,
		decide: func(ctx context.Context, c *computation.Computation, o *observer.Observer, _ SearchOptions) Decision {
			return Decision{Verdict: RADecide(ctx, c, o)}
		}},
	{Model: CAUSAL, Bit: PatternCAUSAL,
		decide: func(ctx context.Context, c *computation.Computation, o *observer.Observer, _ SearchOptions) Decision {
			return Decision{Verdict: CausalDecide(ctx, c, o)}
		}},
}

func decideQDag(p Predicate) func(context.Context, *computation.Computation, *observer.Observer, SearchOptions) Decision {
	return func(ctx context.Context, c *computation.Computation, o *observer.Observer, _ SearchOptions) (d Decision) {
		d.Violation, d.Verdict = QDagDecide(ctx, p, c, o)
		return d
	}
}

func explainLC(c *computation.Computation, o *observer.Observer) string {
	if e := ExplainLC(c, o); e != nil {
		return e.String()
	}
	return ""
}

// Registry returns the registered models in registry order.
func Registry() []Row { return append([]Row(nil), registry[:]...) }

// Lookup resolves a registered model by name (case-sensitive; names
// are canonical uppercase).
func Lookup(name string) (Row, bool) {
	for _, r := range registry {
		if r.Model.Name() == name {
			return r, true
		}
	}
	return Row{}, false
}

// ModelNames lists the registered model names in registry order.
func ModelNames() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.Model.Name()
	}
	return names
}

// Decide answers (c, o) ∈ r.Model under ctx, bracketing the decision
// in run events labeled with the model name on opts.Recorder: the
// engine-backed deciders emit their own engine events, and the
// polynomial ones get an explicit RunStart/RunEnd pair so recorded
// sessions still see one run per decision.
func (r Row) Decide(ctx context.Context, c *computation.Computation, o *observer.Observer, opts SearchOptions) Decision {
	name := r.Model.Name()
	rec := obs.WithRun(opts.Recorder, name)
	var d Decision
	if r.Search {
		opts.Recorder = rec
		d = r.decide(ctx, c, o, opts)
	} else {
		obs.Emit(rec, obs.Event{Kind: obs.RunStart, Total: 1})
		d = r.decide(ctx, c, o, opts)
		obs.Emit(rec, obs.Event{Kind: obs.RunEnd, Str: d.Verdict.String()})
	}
	d.Model = name
	return d
}

// DecideByName is Lookup followed by Row.Decide. An unknown model name
// is an error naming the registered models.
func DecideByName(ctx context.Context, model string, c *computation.Computation, o *observer.Observer, opts SearchOptions) (Decision, error) {
	r, ok := Lookup(model)
	if !ok {
		return Decision{}, fmt.Errorf("memmodel: unknown model %q (known models: %s)", model, strings.Join(ModelNames(), ", "))
	}
	return r.Decide(ctx, c, o, opts), nil
}
