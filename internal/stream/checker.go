package stream

import (
	"context"
	"fmt"

	"repro/internal/checker"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/search"
	"repro/internal/trace"
)

// This file implements the incremental checker: the online analogue of
// internal/checker. It ingests one event at a time, maintains per-
// location constraint state, and raises a violation at the first event
// where one becomes *observable* — provable for every possible
// completion of the stream, not merely for the prefix seen so far.
//
// # Why prefix verdicts need care
//
// Running the post-mortem checker on a prefix and reporting its
// "VIOLATED" would be wrong: a read that matches no write yet may be
// explained by a concurrent write that simply has not arrived. We
// model that with *joker writes*: when deciding mid-stream, every
// defined-value read may alternatively be explained by a fresh,
// unordered write of its value (the completion can always contain
// one). A prefix that is infeasible even with jokers stays infeasible
// in every completion — the delivery protocol guarantees the ingested
// prefix is a downward-closed induced subgraph of the final
// computation, so completions only add nodes and edges *to* new
// nodes, never between existing ones.
//
// # The two stable-violation rules
//
// Fix a location l. Call a node an l-anchor if it is a write to l or a
// defined-value read of l (either forces some write to l before it in
// any explaining serialization, joker or real). A ⊥-read of l must
// precede *every* write to l, hence every l-anchor.
//
// Taint rule (LC and SC, checked per event in O(locations/64) words):
// if an l-anchor precedes a ⊥-read of l in the dag itself, even the
// per-location serializations of location consistency are impossible,
// jokers included. Conversely a prefix with no tainted ⊥-read is
// always LC-explainable in some completion (serialize each location
// ⊥-reads-first, give each defined read a joker), so taint is the
// complete characterization of stable LC violations.
//
// Cycle rule (SC, checked on a cadence): SC needs one global
// serialization, so the per-location "⊥-reads before anchors"
// obligations can interlock across locations even when no single
// location is tainted. Encode each obligation with a virtual node B_l
// (⊥-read of l → B_l → every l-anchor) on top of the real dag; a
// serialization satisfying every obligation exists iff the augmented
// graph is acyclic, which Kahn's algorithm decides in linear time. A
// cycle is a stable SC violation (and only SC: the witness trace in
// the tests is LC-explainable).
//
// # End of stream
//
// The final verdict is computed by the same post-mortem code path
// (checker.VerifyLCCtx / VerifySCCtx) over the assembled trace, so it
// is byte-identical to offline verification of the completed trace.
// Models already online-violated short-circuit to a definitive
// VIOLATED without re-searching — sound by the rules above. If the
// ingest overran its buffer the checker saw only part of the trace:
// undecided models degrade to the typed INCONCLUSIVE(overrun), while
// violations found before the overrun remain definitive.

// Options tunes the incremental checker. The zero value is usable.
type Options struct {
	// CheckEvery is the cadence, in node events, of the cross-location
	// cycle check (the taint rule runs on every event regardless).
	// 0 means the default of 64; negative disables cadence checks
	// (CheckNow still works).
	CheckEvery int
	// MaxEvents caps ingested node events; past it the stream is
	// treated as overrun and further events are shed. 0 = unlimited.
	MaxEvents int64
}

// DefaultCheckEvery is the cycle-check cadence when Options leaves it 0.
const DefaultCheckEvery = 64

// Violation describes a stable mid-stream violation: the models it
// excludes hold in no completion of the stream seen so far.
type Violation struct {
	// Models lists the excluded models ("LC", "SC"); a taint violation
	// excludes both, a cycle violation only SC.
	Models []string `json:"models"`
	// Kind is "taint" or "cycle".
	Kind string `json:"kind"`
	// Event is the 1-based node-event index at which the violation
	// became observable.
	Event int64 `json:"event"`
	// Node names the offending ⊥-read (taint) or a representative node
	// on the cycle (cycle).
	Node string `json:"node"`
	// Loc names the location of a taint violation ("" for cycles,
	// which span locations).
	Loc string `json:"loc,omitempty"`
	// Msg is a human-readable account.
	Msg string `json:"msg"`
}

// Stats is a snapshot of the checker's gauges, exported to /statsz and
// the -report JSON.
type Stats struct {
	// Events is the number of node events ingested (locs/end excluded).
	Events int64 `json:"events"`
	// Shed counts node events dropped after an overrun.
	Shed int64 `json:"shed"`
	// Nodes and Locs size the assembled computation.
	Nodes int `json:"nodes"`
	Locs  int `json:"locs"`
	// Frontier is the number of live ordering obligations: for each
	// location that has both ⊥-reads and anchors, their sum. It is the
	// size of the constraint structure the cycle check walks.
	Frontier int `json:"frontier"`
	// CheckpointAge is the number of node events since the last cycle
	// check (or since the start if none has run).
	CheckpointAge int64 `json:"checkpoint_age"`
	// Violations counts stable violations found so far.
	Violations int `json:"violations"`
	// Ended and Overrun report terminal stream state.
	Ended   bool `json:"ended"`
	Overrun bool `json:"overrun"`
}

// Final is the end-of-stream outcome for both serialization models.
type Final struct {
	LC, SC           search.Verdict
	LCStats, SCStats search.Stats
	// LCResult/SCResult carry witness observers for explainable
	// verdicts (from the post-mortem pass; short-circuited violations
	// have none).
	LCResult, SCResult checker.Result
}

// Checker is the incremental verifier. Not safe for concurrent use;
// the streaming endpoint drives it from a single consumer goroutine.
type Checker struct {
	opts  Options
	named *computation.Named

	writeVal []trace.Value
	readVal  []trace.Value

	// full[u] is a bitset over locations: bit l set iff some l-anchor
	// is u or an ancestor of u. The taint check for a new ⊥-read of l
	// is one bit test on the OR of its predecessors' masks.
	full  [][]uint64
	words int

	// anchors[l] / bottoms[l] list the l-anchors and ⊥-reads of l, in
	// arrival order: the edge lists of the virtual node B_l.
	anchors [][]dag.Node
	bottoms [][]dag.Node

	events     int64
	shed       int64
	sinceCheck int64
	ended      bool
	overrun    bool

	violations []Violation
	lcViolated bool
	scViolated bool

	scratch []uint64
}

// New returns an empty incremental checker.
func New(opts Options) *Checker {
	if opts.CheckEvery == 0 {
		opts.CheckEvery = DefaultCheckEvery
	}
	return &Checker{opts: opts}
}

// Ingest consumes one event. It returns the violation the event made
// observable, if any (also retained in Violations), or a protocol
// error, which is fatal to the stream: the checker's state is no
// longer extended and the caller should fail the connection.
func (c *Checker) Ingest(ev Event) (*Violation, error) {
	if c.ended {
		return nil, fmt.Errorf("stream: event after end")
	}
	switch ev.Ev {
	case EvLocs:
		if c.named != nil {
			return nil, fmt.Errorf("stream: locs event must be first and unique")
		}
		for i, a := range ev.Locs {
			for _, b := range ev.Locs[i+1:] {
				if a == b {
					return nil, fmt.Errorf("stream: duplicate location %q", a)
				}
			}
		}
		c.init(ev.Locs)
		return nil, nil
	case EvEnd:
		// Flush the cadence: a cycle that became observable since the
		// last cadenced check is still an online violation — report it
		// on the end event rather than leaving it to the end-of-stream
		// search to rediscover.
		v := c.CheckNow()
		c.ended = true
		return v, nil
	case EvNode:
		if c.named == nil {
			c.init(nil)
		}
		return c.ingestNode(ev)
	default:
		return nil, fmt.Errorf("stream: unknown event kind %q", ev.Ev)
	}
}

func (c *Checker) init(locs []string) {
	c.named = computation.NewNamed(locs...)
	n := len(locs)
	c.words = (n + 63) / 64
	c.anchors = make([][]dag.Node, n)
	c.bottoms = make([][]dag.Node, n)
	c.scratch = make([]uint64, c.words)
}

func (c *Checker) ingestNode(ev Event) (*Violation, error) {
	if c.overrun {
		c.shed++
		return nil, nil
	}
	if c.opts.MaxEvents > 0 && c.events >= c.opts.MaxEvents {
		c.overrun = true
		c.shed++
		return nil, nil
	}
	if _, dup := c.named.NodeID[ev.Name]; dup {
		return nil, fmt.Errorf("stream: duplicate node %q", ev.Name)
	}
	op, err := parseOp(ev.Op, c.named.LocID)
	if err != nil {
		return nil, err
	}
	switch op.Kind {
	case computation.Write:
		if ev.Val == nil {
			return nil, fmt.Errorf("stream: write node %q without a value", ev.Name)
		}
		if ev.Bottom {
			return nil, fmt.Errorf("stream: write node %q cannot be bottom", ev.Name)
		}
	case computation.Read:
		if ev.Val == nil && !ev.Bottom {
			return nil, fmt.Errorf("stream: read node %q needs val or bottom", ev.Name)
		}
	default:
		if ev.Val != nil || ev.Bottom {
			return nil, fmt.Errorf("stream: no-op node %q cannot carry a value", ev.Name)
		}
	}
	preds := make([]dag.Node, 0, len(ev.Pred))
	for _, p := range ev.Pred {
		pu, ok := c.named.NodeID[p]
		if !ok {
			return nil, fmt.Errorf("stream: node %q depends on undelivered node %q", ev.Name, p)
		}
		preds = append(preds, pu)
	}

	u := c.named.AddNode(ev.Name, op)
	for _, p := range preds {
		c.named.Comp.MustAddEdge(p, u)
	}
	var wv, rv trace.Value
	switch op.Kind {
	case computation.Write:
		wv = trace.Value(*ev.Val)
	case computation.Read:
		if ev.Bottom {
			rv = trace.Undefined
		} else {
			rv = trace.Value(*ev.Val)
		}
	}
	c.writeVal = append(c.writeVal, wv)
	c.readVal = append(c.readVal, rv)
	c.events++
	c.sinceCheck++

	// Anchored-ancestry mask: OR of the predecessors' masks, then the
	// node's own anchor contribution. Computed before the taint test so
	// scratch holds exactly the *proper*-ancestor anchors.
	mask := c.scratch
	for i := range mask {
		mask[i] = 0
	}
	for _, p := range preds {
		pm := c.full[p]
		for i := range mask {
			mask[i] |= pm[i]
		}
	}

	var v *Violation
	l := op.Loc
	isBottomRead := op.Kind == computation.Read && rv == trace.Undefined
	if isBottomRead && mask[l>>6]&(1<<(uint(l)&63)) != 0 {
		v = &Violation{
			Models: []string{"LC", "SC"},
			Kind:   "taint",
			Event:  c.events,
			Node:   ev.Name,
			Loc:    c.named.LocName[l],
			Msg: fmt.Sprintf("read %s of %s observed no write, but a write or defined read of %s precedes it: no serialization of %s can explain any completion",
				ev.Name, c.named.LocName[l], c.named.LocName[l], c.named.LocName[l]),
		}
		c.record(v)
	}

	own := append([]uint64(nil), mask...)
	if op.Kind == computation.Write || (op.Kind == computation.Read && !isBottomRead) {
		own[l>>6] |= 1 << (uint(l) & 63)
		c.anchors[l] = append(c.anchors[l], u)
	}
	if isBottomRead {
		c.bottoms[l] = append(c.bottoms[l], u)
	}
	c.full = append(c.full, own)

	if v == nil && c.opts.CheckEvery > 0 && c.sinceCheck >= int64(c.opts.CheckEvery) {
		v = c.CheckNow()
	}
	return v, nil
}

func (c *Checker) record(v *Violation) {
	c.violations = append(c.violations, *v)
	for _, m := range v.Models {
		switch m {
		case "LC":
			c.lcViolated = true
		case "SC":
			c.scViolated = true
		}
	}
}

// CheckNow runs the cross-location cycle check immediately and returns
// the violation it finds, if any. Idempotent once SC is violated.
func (c *Checker) CheckNow() *Violation {
	c.sinceCheck = 0
	if c.scViolated || c.named == nil {
		return nil
	}
	n := c.named.Comp.NumNodes()
	numLocs := len(c.named.LocName)
	// B_l participates only when both edge sides are non-empty;
	// otherwise it cannot lie on a cycle.
	active := make([]bool, numLocs)
	extra := 0
	for l := 0; l < numLocs; l++ {
		if len(c.bottoms[l]) > 0 && len(c.anchors[l]) > 0 {
			active[l] = true
			extra++
		}
	}
	if extra == 0 {
		return nil
	}
	// Kahn over real nodes plus one virtual node per active location.
	total := n + numLocs
	indeg := make([]int32, total)
	d := c.named.Comp.Dag()
	for u := 0; u < n; u++ {
		indeg[u] = int32(d.InDegree(dag.Node(u)))
	}
	for l := 0; l < numLocs; l++ {
		if !active[l] {
			continue
		}
		indeg[n+l] = int32(len(c.bottoms[l]))
		for _, a := range c.anchors[l] {
			indeg[a]++
		}
	}
	queue := make([]int, 0, total)
	for u := 0; u < total; u++ {
		if u >= n && !active[u-n] {
			continue
		}
		if indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	processed := 0
	relax := func(v int) {
		indeg[v]--
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		processed++
		if u < n {
			for _, s := range d.Succs(dag.Node(u)) {
				relax(int(s))
			}
			op := c.named.Comp.Op(dag.Node(u))
			if op.Kind == computation.Read && c.readVal[u] == trace.Undefined && active[op.Loc] {
				relax(n + int(op.Loc))
			}
		} else {
			for _, a := range c.anchors[u-n] {
				relax(int(a))
			}
		}
	}
	if processed == n+extra {
		return nil
	}
	// Cycle: every unprocessed real node reaches one; name the first.
	rep := ""
	for u := 0; u < n; u++ {
		if indeg[u] > 0 {
			rep = c.named.NodeName[u]
			break
		}
	}
	v := &Violation{
		Models: []string{"SC"},
		Kind:   "cycle",
		Event:  c.events,
		Node:   rep,
		Msg: fmt.Sprintf("the \"no-write-yet reads precede writes\" obligations interlock across locations (cycle through %s): no single serialization can explain any completion",
			rep),
	}
	c.record(v)
	return v
}

// MarkOverrun applies the overflow policy: the ingest outran its
// buffer, so subsequent events are shed and undecided models will
// finish INCONCLUSIVE(overrun).
func (c *Checker) MarkOverrun() { c.overrun = true }

// AddShed folds ring-level shed counts into the checker's gauge.
func (c *Checker) AddShed(n int64) { c.shed += n }

// Ended reports whether the end event has been ingested.
func (c *Checker) Ended() bool { return c.ended }

// Overrun reports whether the overflow policy has triggered.
func (c *Checker) Overrun() bool { return c.overrun }

// Violations returns the stable violations found so far, in order.
func (c *Checker) Violations() []Violation { return c.violations }

// Stats snapshots the checker's gauges.
func (c *Checker) Stats() Stats {
	s := Stats{
		Events:        c.events,
		Shed:          c.shed,
		CheckpointAge: c.sinceCheck,
		Violations:    len(c.violations),
		Ended:         c.ended,
		Overrun:       c.overrun,
	}
	if c.named != nil {
		s.Nodes = c.named.Comp.NumNodes()
		s.Locs = len(c.named.LocName)
		for l := range c.anchors {
			if len(c.bottoms[l]) > 0 && len(c.anchors[l]) > 0 {
				s.Frontier += len(c.bottoms[l]) + len(c.anchors[l])
			}
		}
	}
	return s
}

// Trace assembles the ingested prefix as a named trace. The returned
// structures share state with the checker; callers must not mutate
// them while ingestion continues.
func (c *Checker) Trace() *trace.NamedTrace {
	if c.named == nil {
		c.init(nil)
	}
	return &trace.NamedTrace{
		Named: c.named,
		Trace: &trace.Trace{Comp: c.named.Comp, WriteVal: c.writeVal, ReadVal: c.readVal},
	}
}

// Finish computes the end-of-stream verdicts. For models not already
// online-violated it runs the post-mortem checker over the assembled
// trace — the same code path as offline verification, so the verdict
// (and witness) is byte-identical to checker.VerifyLCCtx/VerifySCCtx
// on the completed trace. Online-violated models short-circuit to a
// definitive VIOLATED; an overrun degrades undecided models to
// INCONCLUSIVE(overrun).
func (c *Checker) Finish(ctx context.Context, opts checker.SearchOptions) Final {
	var f Final
	nt := c.Trace()
	decideLC := func() {
		switch {
		case c.lcViolated:
			f.LC = search.VerdictOut()
		case c.overrun:
			f.LC = search.VerdictInconclusive(search.StopOverrun)
		default:
			f.LCResult, f.LC, f.LCStats = checker.VerifyLCCtx(ctx, nt.Trace, opts)
		}
	}
	decideSC := func() {
		switch {
		case c.scViolated:
			f.SC = search.VerdictOut()
		case c.overrun:
			f.SC = search.VerdictInconclusive(search.StopOverrun)
		default:
			f.SCResult, f.SC, f.SCStats = checker.VerifySCCtx(ctx, nt.Trace, opts)
		}
	}
	decideLC()
	decideSC()
	return f
}
