package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/observer"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Seeded input generation. Every request body is built once per base
// input as a template whose node names are slots; an op renders the
// template with names that carry its op index, so no two ops of a run
// send the same canonical input while the verdicts stay those of the
// base input.

// slotMark brackets a node index in a template. It never appears in a
// rendered body: rendered names are [A-Za-z0-9_] only.
const slotMark = "@@"

// template is a request body with its node names cut out.
type template struct {
	lits  []string // len(slots)+1 literal pieces
	slots []int    // node index filling the slot after lits[i]
	names []string // base node names
}

// newTemplate splits s, in which node i is spelled slotMark+i+slotMark.
func newTemplate(s string, names []string) template {
	parts := strings.Split(s, slotMark)
	t := template{names: names}
	for i, p := range parts {
		if i%2 == 0 {
			t.lits = append(t.lits, p)
			continue
		}
		idx, err := strconv.Atoi(p)
		if err != nil || idx < 0 || idx >= len(names) {
			panic(fmt.Sprintf("ccbench: bad template slot %q", p))
		}
		t.slots = append(t.slots, idx)
	}
	return t
}

// render writes the body with node i named names[i]+"_"+tag.
func (t template) render(tag string) []byte {
	n := len(t.lits[0])
	for i, s := range t.slots {
		n += len(t.names[s]) + 1 + len(tag) + len(t.lits[i+1])
	}
	b := make([]byte, 0, n)
	b = append(b, t.lits[0]...)
	for i, s := range t.slots {
		b = append(b, t.names[s]...)
		b = append(b, tagSep)
		b = append(b, tag...)
		b = append(b, t.lits[i+1]...)
	}
	return b
}

// opTag is the name suffix of op k.
func opTag(k int64) string { return "k" + strconv.FormatInt(k, 10) }

// tagSep joins a node's name and its op tag.
const tagSep = '_'

// slotNames returns the slot spelling of n nodes.
func slotNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = slotMark + strconv.Itoa(i) + slotMark
	}
	return out
}

// withNames returns a copy of named whose nodes are called names.
func withNames(named *computation.Named, names []string) *computation.Named {
	cp := *named
	cp.NodeName = names
	return &cp
}

// mustJSON marshals a wire type (never fails for them).
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// checkTemplate renders a /v1/check body for (named, o).
func checkTemplate(named *computation.Named, o *observer.Observer) template {
	var pair strings.Builder
	if err := observer.FormatPair(&pair, withNames(named, slotNames(len(named.NodeName))), o); err != nil {
		panic(err)
	}
	return newTemplate(mustJSON(serve.CheckRequest{Pair: pair.String()}), named.NodeName)
}

// randomComputation draws n nodes over numLocs locations: a sparse
// random dag (each forward pair is an edge with probability edgeP) with
// about 40% writes, 45% reads and 15% no-ops.
func randomComputation(r *rand.Rand, n, numLocs int, edgeP float64) *computation.Named {
	locs := make([]string, numLocs)
	for i := range locs {
		locs[i] = "x" + strconv.Itoa(i)
	}
	named := computation.NewNamed(locs...)
	for u := 0; u < n; u++ {
		l := computation.Loc(r.Intn(numLocs))
		op := computation.N
		switch f := r.Float64(); {
		case f < 0.40:
			op = computation.W(l)
		case f < 0.85:
			op = computation.R(l)
		}
		named.AddNode("n"+strconv.Itoa(u), op)
	}
	for v := 1; v < n; v++ {
		for u := 0; u < v; u++ {
			if r.Float64() < edgeP {
				named.Comp.MustAddEdge(dag.Node(u), dag.Node(v))
			}
		}
	}
	return named
}

// randomTopoSort draws a topological sort by repeatedly placing a
// uniformly chosen ready node.
func randomTopoSort(r *rand.Rand, c *computation.Computation) []dag.Node {
	g := c.Dag()
	indeg := make([]int, g.NumNodes())
	var ready []dag.Node
	for u := range indeg {
		indeg[u] = g.InDegree(dag.Node(u))
		if indeg[u] == 0 {
			ready = append(ready, dag.Node(u))
		}
	}
	order := make([]dag.Node, 0, len(indeg))
	for len(ready) > 0 {
		i := r.Intn(len(ready))
		u := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, u)
		for _, v := range g.Succs(u) {
			if indeg[v]--; indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	return order
}

// checkCase is one base input of the /v1/check workloads.
type checkCase struct {
	kind  string // "litmus", "lastwriter" or "perturbed"
	label string // fixture name or generated id, for failure reports
	body  template
	raw   []byte          // the fixture's file as sent (check-hot only)
	want  map[string]bool // known verdicts (true = IN), by model
}

// litmusCases loads the litmus corpus and its golden verdicts.
func litmusCases(dir string) ([]checkCase, error) {
	golden, err := os.ReadFile(filepath.Join(dir, "verdicts.txt"))
	if err != nil {
		return nil, err
	}
	var out []checkCase
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 1+len(memmodel.ModelNames()) {
			return nil, fmt.Errorf("verdicts.txt: malformed line %q", line)
		}
		c := checkCase{kind: "litmus", label: fields[0], want: map[string]bool{}}
		for _, f := range fields[1:] {
			m, v, ok := strings.Cut(f, "=")
			if !ok || (v != "IN" && v != "OUT") {
				return nil, fmt.Errorf("verdicts.txt: malformed verdict %q", f)
			}
			c.want[m] = v == "IN"
		}
		raw, err := os.ReadFile(filepath.Join(dir, fields[0]+".ccm"))
		if err != nil {
			return nil, err
		}
		named, o, err := observer.ParsePairString(string(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fields[0], err)
		}
		c.raw = []byte(mustJSON(serve.CheckRequest{Pair: string(raw)}))
		c.body = checkTemplate(named, o)
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no fixtures", dir)
	}
	return out, nil
}

// allIn is the known answer of a last-writer pair: SC, the strongest
// model, contains it, so every model does.
func allIn() map[string]bool {
	want := map[string]bool{}
	for _, m := range memmodel.ModelNames() {
		want[m] = true
	}
	return want
}

// lastWriterCase draws the last-writer observer of a random
// topological sort of a random computation (8-16 nodes, 2-3 locations).
func lastWriterCase(r *rand.Rand, id int) checkCase {
	n, locs := 8+r.Intn(9), 2+r.Intn(2)
	named := randomComputation(r, n, locs, 2.0/float64(n))
	o := observer.FromLastWriter(named.Comp, randomTopoSort(r, named.Comp))
	return checkCase{kind: "lastwriter", label: fmt.Sprintf("lastwriter#%d", id), body: checkTemplate(named, o), want: allIn()}
}

// perturbedPair draws a last-writer pair of at most 9 nodes and
// re-points one read at another eligible write of its location. It
// returns false when the draw has no read to re-point.
func perturbedPair(r *rand.Rand) (*computation.Named, *observer.Observer, bool) {
	n, locs := 5+r.Intn(5), 2+r.Intn(2)
	named := randomComputation(r, n, locs, 2.0/float64(n))
	c := named.Comp
	o := observer.FromLastWriter(c, randomTopoSort(r, c))
	cl := c.Closure()
	type move struct {
		l    computation.Loc
		u, w dag.Node
	}
	var moves []move
	for u := dag.Node(0); int(u) < n; u++ {
		op := c.Op(u)
		if op.Kind != computation.Read {
			continue
		}
		for _, w := range c.Writers(op.Loc) {
			if w != o.Get(op.Loc, u) && !cl.Precedes(u, w) {
				moves = append(moves, move{op.Loc, u, w})
			}
		}
	}
	if len(moves) == 0 {
		return nil, nil, false
	}
	m := moves[r.Intn(len(moves))]
	o.Set(m.l, m.u, m.w)
	return named, o, true
}

// perturbedCase draws a perturbed pair and decides SC and LC with the
// brute-force oracle; the other models are checked by inclusion.
func perturbedCase(r *rand.Rand, id int) checkCase {
	for {
		named, o, ok := perturbedPair(r)
		if !ok {
			continue
		}
		sc, lc := oracle(named.Comp, o)
		return checkCase{kind: "perturbed", label: fmt.Sprintf("perturbed#%d", id),
			body: checkTemplate(named, o), want: map[string]bool{"SC": sc, "LC": lc}}
	}
}

// checkInputs is the generated input set of the /v1/check workloads.
type checkInputs struct {
	litmus     []checkCase
	lastWriter []checkCase
	perturbed  []checkCase
	hotOrder   [][]int // seeded permutations of the litmus corpus
}

// Pool sizes of the generated base inputs. Ops cycle through them
// with fresh names, so the sizes bound set-up work, not variety.
const (
	lastWriterPool = 128
	perturbedPool  = 64
	hotPerms       = 64
	tracePool      = 32 // per trace kind
)

func genCheckInputs(seed int64, litmusDir string) (*checkInputs, error) {
	lit, err := litmusCases(litmusDir)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	in := &checkInputs{litmus: lit}
	for i := 0; i < lastWriterPool; i++ {
		in.lastWriter = append(in.lastWriter, lastWriterCase(r, i))
	}
	for i := 0; i < perturbedPool; i++ {
		in.perturbed = append(in.perturbed, perturbedCase(r, i))
	}
	for i := 0; i < hotPerms; i++ {
		in.hotOrder = append(in.hotOrder, r.Perm(len(lit)))
	}
	return in, nil
}

// hotIndex returns the litmus fixture of check-hot op k. It is sent as
// the file reads (byte-identical repeats, so every timed op hits).
func (in *checkInputs) hotIndex(k int64) int {
	n := int64(len(in.litmus))
	perm := in.hotOrder[(k/n)%int64(len(in.hotOrder))]
	return perm[k%n]
}

// miss returns the check-miss input of op k and its body: the kinds
// rotate last-writer, renamed fixture, perturbed.
func (in *checkInputs) miss(k int64) (*checkCase, []byte) {
	var pool []checkCase
	switch k % 3 {
	case 0:
		pool = in.lastWriter
	case 1:
		pool = in.litmus
	default:
		pool = in.perturbed
	}
	c := &pool[(k/3)%int64(len(pool))]
	return c, c.body.render(opTag(k))
}

// traceCase is one base input of trace-miss, verified either by
// POST /v1/verify or streamed whole to POST /v1/trace.
type traceCase struct {
	kind   string // "explainable", "relaxed" or "violated"
	label  string
	verify template // /v1/verify body
	stream template // /v1/trace NDJSON body
	lc, sc bool     // known answers (true = explainable)
}

// Trace kinds, in op rotation order.
var traceKinds = []string{"explainable", "relaxed", "violated"}

// newTraceCase builds the trace-miss input of one kind from a
// last-writer trace. The pieces sit on disjoint locations, so their
// verdicts compose:
//   - explainable: the last-writer trace alone, explainable under LC and SC;
//   - relaxed: plus a gadget that is LC-explainable but violates SC;
//   - violated: plus a gadget that violates LC, and so SC.
//
// Odd ids use gadgets the stream checker proves mid-stream, even ids
// gadgets only the end-of-stream search refutes (a read of a value can
// always be explained by a write still to come):
//   - relaxed: mp_stale (even), or store buffering with both reads ⊥ (odd);
//   - violated: a stale read w1 ≺ w2 ≺ r returning w1's unique value
//     (even), or a ⊥ read after a write of its location (odd).
func newTraceCase(r *rand.Rand, kind string, id int) traceCase {
	n := 8 + r.Intn(5)
	base := randomComputation(r, n, 2, 2.0/float64(n))
	order := randomTopoSort(r, base.Comp)
	online := id%2 == 1
	locs := append([]string(nil), base.LocName...)
	switch {
	case kind == "relaxed" && online:
		locs = append(locs, "a", "b")
	case kind == "relaxed":
		locs = append(locs, "data", "flag")
	case kind == "violated":
		locs = append(locs, "z")
	}
	named := computation.NewNamed(locs...)
	for u := 0; u < n; u++ {
		named.AddNode(base.NodeName[u], base.Comp.Op(dag.Node(u)))
	}
	for _, e := range base.Comp.Dag().Edges() {
		named.Comp.MustAddEdge(e[0], e[1])
	}
	// Values come from {1, 2}, so reads have many candidate writers.
	vals := map[string]trace.Value{}
	last := make([]string, len(locs))
	for _, u := range order {
		name, op := base.NodeName[u], base.Comp.Op(u)
		switch op.Kind {
		case computation.Write:
			vals[name] = trace.Value(1 + r.Intn(2))
			last[op.Loc] = name
		case computation.Read:
			if last[op.Loc] == "" {
				vals[name] = trace.Undefined
			} else {
				vals[name] = vals[last[op.Loc]]
			}
		}
	}
	lc, sc := true, true
	add := func(name string, op computation.Op, v trace.Value, preds ...string) {
		named.AddNode(name, op)
		for _, p := range preds {
			if err := named.AddEdge(p, name); err != nil {
				panic(err)
			}
		}
		vals[name] = v
	}
	switch {
	case kind == "relaxed" && online:
		a, b := named.LocID["a"], named.LocID["b"]
		add("Wa", computation.W(a), 1)
		add("Rb", computation.R(b), trace.Undefined, "Wa")
		add("Wb", computation.W(b), 1)
		add("Ra", computation.R(a), trace.Undefined, "Wb")
		sc = false
	case kind == "relaxed":
		d, f := named.LocID["data"], named.LocID["flag"]
		add("Wd", computation.W(d), 1)
		add("Wf", computation.W(f), 1, "Wd")
		add("Rf", computation.R(f), 1)
		add("Rd", computation.R(d), trace.Undefined, "Rf")
		sc = false
	case kind == "violated" && online:
		z := named.LocID["z"]
		add("Tw", computation.W(z), 1)
		add("Tr", computation.R(z), trace.Undefined, "Tw")
		lc, sc = false, false
	case kind == "violated":
		z := named.LocID["z"]
		add("Sw1", computation.W(z), 1)
		add("Sw2", computation.W(z), 2, "Sw1")
		add("Sr", computation.R(z), 1, "Sw2")
		lc, sc = false, false
	}
	c := named.Comp
	tr := trace.New(c)
	for u, name := range named.NodeName {
		switch c.Op(dag.Node(u)).Kind {
		case computation.Write:
			tr.WriteVal[u] = vals[name]
		case computation.Read:
			tr.ReadVal[u] = vals[name]
		}
	}
	names := named.NodeName
	slotted := &trace.NamedTrace{Named: withNames(named, slotNames(len(names))), Trace: tr}
	var text strings.Builder
	if err := slotted.Format(&text); err != nil {
		panic(err)
	}
	events, err := stream.EventsFromTraceOrder(slotted, randomTopoSort(r, c))
	if err != nil {
		panic(err)
	}
	var nd strings.Builder
	if err := stream.WriteNDJSON(&nd, events); err != nil {
		panic(err)
	}
	return traceCase{
		kind:   kind,
		label:  fmt.Sprintf("%s#%d", kind, id),
		verify: newTemplate(mustJSON(serve.VerifyRequest{Trace: text.String()}), names),
		stream: newTemplate(nd.String(), names),
		lc:     lc,
		sc:     sc,
	}
}

// traceInputs is the generated input set of trace-miss, one pool per kind.
type traceInputs struct {
	pools [][]traceCase
}

func genTraceInputs(seed int64) *traceInputs {
	r := rand.New(rand.NewSource(seed))
	in := &traceInputs{pools: make([][]traceCase, len(traceKinds))}
	for i := 0; i < tracePool; i++ {
		for k, kind := range traceKinds {
			in.pools[k] = append(in.pools[k], newTraceCase(r, kind, i))
		}
	}
	return in
}

// op returns the trace-miss input of op k, whether it is streamed, and
// its body. Kinds rotate every op and the endpoint every three, so
// both endpoints see every base input.
func (in *traceInputs) op(k int64) (*traceCase, bool, []byte) {
	pool := in.pools[k%int64(len(in.pools))]
	j := k / int64(len(in.pools))
	c := &pool[(j/2)%int64(len(pool))]
	streamed := j%2 == 1
	if streamed {
		return c, true, c.stream.render(opTag(k))
	}
	return c, false, c.verify.render(opTag(k))
}
