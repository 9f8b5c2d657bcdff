// Package checker implements post-mortem verification: given an
// executed trace (computation + values), decide whether some observer
// function in a memory model explains it. This is the computation-
// centric analogue of Gibbons & Korach's after-the-fact sequential-
// consistency verification ([GK94], cited in Sections 1 and 7).
//
// For the serialization-based models the checker does not enumerate
// observer functions: it runs the unified pruned backtracking engine
// of internal/search, constrained only at read nodes (whose candidate
// writer sets come from value equality), which scales to traces far
// beyond the exhaustive-enumeration experiments.
package checker

import (
	"context"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/observer"
	"repro/internal/search"
	"repro/internal/trace"
)

// SearchOptions tunes the engine behind the serialization checkers
// (workers for parallel root splitting, search-state budget). The zero
// value picks defaults (auto workers, unlimited budget).
type SearchOptions = search.Options

// SearchStats reports the work a verification's searches did.
type SearchStats = search.Stats

// Verdict is the three-valued verification outcome (In / Out /
// Inconclusive with a machine-readable StopReason).
type Verdict = search.Verdict

// VerdictText renders a verification verdict in the spelling the
// verify CLI and the serving layer share: "explainable" for In,
// "VIOLATED" for Out, and the INCONCLUSIVE(reason) form otherwise.
// Keeping the spelling here means a trace checked over HTTP reports
// byte-identically to one checked at the command line.
func VerdictText(v Verdict) string {
	switch {
	case v.In():
		return "explainable"
	case v.Out():
		return "VIOLATED"
	default:
		return v.String()
	}
}

// Result reports a verification outcome with a witness when positive.
type Result struct {
	OK bool
	// Observer is a full observer function explaining the trace, when
	// the checker constructs one (VerifyModelCtx does; the serialization
	// checkers reconstruct it from their witness sorts).
	Observer *observer.Observer
}

// constraints[l][u] is the allowed writer set for node u at location l,
// or nil when unconstrained. allowBottom is tracked via presence of
// observer.Bottom in the slice.
type constraints [][][]dag.Node

func buildConstraints(t *trace.Trace) (constraints, bool) {
	c := t.Comp
	cons := make(constraints, c.NumLocs())
	for l := range cons {
		cons[l] = make([][]dag.Node, c.NumNodes())
	}
	for u := 0; u < c.NumNodes(); u++ {
		op := c.Op(dag.Node(u))
		if op.Kind != computation.Read {
			continue
		}
		cands := t.Candidates(dag.Node(u))
		if len(cands) == 0 {
			return nil, false
		}
		cons[op.Loc][u] = cands
	}
	return cons, true
}

func allowed(cons constraints, l computation.Loc, u, w dag.Node) bool {
	set := cons[l][u]
	if set == nil {
		return true
	}
	for _, x := range set {
		if x == w {
			return true
		}
	}
	return false
}

// searchConstrained looks for a topological sort T of the trace's
// computation such that, for every location l in locs and every node u
// with a constraint, W_T(l, u) lies in the allowed set. Locations in
// locs with no constrained node are dropped from the engine's tracked
// state — their last writer cannot affect admissibility, and a smaller
// state key memoizes far better.
func searchConstrained(ctx context.Context, t *trace.Trace, cons constraints, locs []computation.Loc, opts SearchOptions) search.Result {
	c := t.Comp
	var tracked []computation.Loc
	for _, l := range locs {
		for u := range cons[l] {
			if cons[l][u] != nil {
				tracked = append(tracked, l)
				break
			}
		}
	}
	slot := make([]int, c.NumLocs())
	for l := range slot {
		slot[l] = -1
	}
	for i, l := range tracked {
		slot[l] = i
	}
	spec := search.Spec{
		Dag:      c.Dag(),
		Closure:  c.Closure(),
		NumSlots: len(tracked),
		WriteSlot: func(u dag.Node) int {
			if op := c.Op(u); op.Kind == computation.Write {
				return slot[op.Loc]
			}
			return -1
		},
		Allowed: func(s int, u dag.Node) ([]dag.Node, bool) {
			set := cons[tracked[s]][u]
			return set, set != nil
		},
	}
	return search.RunContext(ctx, spec, opts)
}

// VerifySCCtx decides whether the trace is explainable under
// sequential consistency: some single topological sort's last-writer
// semantics produce exactly the observed read values. The verdict is
// typed: cancellation or deadline expiry stops the searches promptly
// and yields an inconclusive verdict (as does exhausting opts.Budget),
// Out means the exhaustive search excluded every explaining
// serialization, and In comes with the witness observer — the
// last-writer observer of the sort. The decision is exact but
// worst-case exponential (the problem is NP-complete [GK94]). The
// per-location serializability precheck (a polynomial-size relaxation
// of SC) shares the options; each constrained location costs at most
// one budget's worth of states, so the total work is bounded by
// (locations + 1) × Budget.
func VerifySCCtx(ctx context.Context, t *trace.Trace, opts SearchOptions) (Result, Verdict, SearchStats) {
	var stats SearchStats
	if err := t.Validate(); err != nil {
		return Result{}, search.VerdictOut(), stats
	}
	cons, ok := buildConstraints(t)
	if !ok {
		return Result{}, search.VerdictOut(), stats
	}
	// Necessary condition: every location must be independently
	// serializable. Exact rejections here skip the joint search; a
	// budget-exhausted precheck is inconclusive and falls through, but a
	// context stop aborts the whole verification — later searches would
	// return immediately anyway.
	for l := computation.Loc(0); int(l) < t.Comp.NumLocs(); l++ {
		res := serializeLocChoices(ctx, t.Comp, l, cons[l], opts)
		stats.Add(res.Stats)
		if !res.Found && res.Exhausted {
			return Result{}, search.VerdictOut(), stats
		}
		if stop := res.Stop; stop == search.StopDeadline || stop == search.StopCancel {
			return Result{}, search.VerdictInconclusive(stop), stats
		}
	}
	locs := make([]computation.Loc, t.Comp.NumLocs())
	for l := range locs {
		locs[l] = computation.Loc(l)
	}
	res := searchConstrained(ctx, t, cons, locs, opts)
	stats.Add(res.Stats)
	if !res.Found {
		return Result{}, res.Verdict(), stats
	}
	return Result{OK: true, Observer: observer.FromLastWriter(t.Comp, res.Order)}, search.VerdictIn(), stats
}

// OrderExplains reports whether a specific topological sort's
// last-writer semantics reproduce every read value of the trace — a
// constant witness check useful when the executing system can supply
// its own serialization candidate (e.g. a schedule's completion order).
func OrderExplains(t *trace.Trace, order []dag.Node) bool {
	if err := t.Validate(); err != nil || !t.Comp.Dag().IsTopoSort(order) {
		return false
	}
	for l := computation.Loc(0); int(l) < t.Comp.NumLocs(); l++ {
		row := observer.LastWriterForLoc(t.Comp, order, l)
		for u := 0; u < t.Comp.NumNodes(); u++ {
			if !t.Comp.Op(dag.Node(u)).IsReadOf(l) {
				continue
			}
			var v trace.Value
			if row[u] == observer.Bottom {
				v = trace.Undefined
			} else {
				v = t.WriteVal[row[u]]
			}
			if v != t.ReadVal[u] {
				return false
			}
		}
	}
	return true
}

// VerifyLCCtx decides whether the trace is explainable under location
// consistency: each location independently admits a serialization
// matching the observed values. On success the witness observer is
// assembled from the per-location sorts. See VerifySCCtx for the
// verdict semantics.
func VerifyLCCtx(ctx context.Context, t *trace.Trace, opts SearchOptions) (Result, Verdict, SearchStats) {
	var stats SearchStats
	if err := t.Validate(); err != nil {
		return Result{}, search.VerdictOut(), stats
	}
	cons, ok := buildConstraints(t)
	if !ok {
		return Result{}, search.VerdictOut(), stats
	}
	sorts := make([][]dag.Node, t.Comp.NumLocs())
	for l := computation.Loc(0); int(l) < t.Comp.NumLocs(); l++ {
		res := serializeLocChoices(ctx, t.Comp, l, cons[l], opts)
		stats.Add(res.Stats)
		if !res.Found {
			return Result{}, res.Verdict(), stats
		}
		sorts[l] = res.Order
	}
	if t.Comp.NumLocs() == 0 {
		return Result{OK: true, Observer: observer.New(t.Comp)}, search.VerdictIn(), stats
	}
	return Result{OK: true, Observer: observer.FromPerLocationSorts(t.Comp, sorts)}, search.VerdictIn(), stats
}

// serializeLocChoices finds a serialization of location l compatible
// with per-node candidate sets (nil = unconstrained): a single-slot
// engine search whose candidate sets are exactly the per-read choices.
// The engine's static closure filtering resolves the unambiguous reads
// and its backtracking covers the ambiguous ones, replacing the
// choice-enumeration loop the checker used to run around
// memmodel.SerializeLoc.
func serializeLocChoices(ctx context.Context, c *computation.Computation, l computation.Loc, cands [][]dag.Node, opts SearchOptions) search.Result {
	spec := search.Spec{
		Dag:      c.Dag(),
		Closure:  c.Closure(),
		NumSlots: 1,
		WriteSlot: func(u dag.Node) int {
			if c.Op(u).IsWriteTo(l) {
				return 0
			}
			return -1
		},
		Allowed: func(_ int, u dag.Node) ([]dag.Node, bool) {
			return cands[u], cands[u] != nil
		},
	}
	return search.RunContext(ctx, spec, opts)
}

// VerifyModelCtx decides explainability under an arbitrary model by
// enumerating observer functions compatible with the trace (reads are
// pinned to their value-derived candidates; all other entries range
// over the full candidate sets) via search.Assignments. Exponential in
// the number of unconstrained entries — intended for the dag-consistent
// models on moderate computations. ctx is polled between candidate
// observers, so cancellation or deadline expiry stops the enumeration
// promptly with an inconclusive verdict, as does hitting maxTries
// (0 = unlimited).
func VerifyModelCtx(ctx context.Context, m memmodel.Model, t *trace.Trace, maxTries int) (Result, Verdict) {
	if err := t.Validate(); err != nil {
		return Result{}, search.VerdictOut()
	}
	c := t.Comp
	cands := observer.Candidates(c)
	cons, ok := buildConstraints(t)
	if !ok {
		return Result{}, search.VerdictOut()
	}
	// Intersect read rows with trace candidates.
	for l := range cands {
		for u := range cands[l] {
			if cons[l][u] == nil {
				continue
			}
			var narrowed []dag.Node
			for _, v := range cands[l][u] {
				if allowed(cons, computation.Loc(l), dag.Node(u), v) {
					narrowed = append(narrowed, v)
				}
			}
			cands[l][u] = narrowed
		}
	}

	o := observer.New(c)
	n := c.NumNodes()
	domains := make([][]dag.Node, 0, c.NumLocs()*n)
	for l := 0; l < c.NumLocs(); l++ {
		domains = append(domains, cands[l]...)
	}
	tried := 0
	stop := search.StopNone
	var found *observer.Observer
	search.Assignments(domains, func(assign []dag.Node) bool {
		if err := ctx.Err(); err != nil {
			stop = search.ContextStopReason(err)
			return false
		}
		for i, v := range assign {
			o.Set(computation.Loc(i/n), dag.Node(i%n), v)
		}
		tried++
		if m.Contains(c, o) {
			found = o.Clone()
			return false
		}
		if maxTries > 0 && tried >= maxTries {
			stop = search.StopBudget
			return false
		}
		return true
	})
	switch {
	case found != nil:
		return Result{OK: true, Observer: found}, search.VerdictIn()
	case stop != search.StopNone:
		return Result{}, search.VerdictInconclusive(stop)
	default:
		return Result{}, search.VerdictOut()
	}
}
