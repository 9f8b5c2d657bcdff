package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/memmodel"
	"repro/internal/observer"
	"repro/internal/search"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/trace"
)

// opsToCheck covers every base input of every pool at least twice.
const opsToCheck = 3 * 2 * lastWriterPool

func checkBodies(t *testing.T, seed int64) [][]byte {
	t.Helper()
	in, err := genCheckInputs(seed, litmusDir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for k := int64(0); k < opsToCheck; k++ {
		_, body := in.miss(k)
		out = append(out, body)
		out = append(out, in.litmus[in.hotIndex(k)].raw)
	}
	return out
}

func traceBodies(seed int64) [][]byte {
	in := genTraceInputs(seed)
	var out [][]byte
	for k := int64(0); k < opsToCheck; k++ {
		_, _, body := in.op(k)
		out = append(out, body)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := checkBodies(t, 7), checkBodies(t, 7)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("check op %d differs between two generations of seed 7", i)
		}
	}
	ta, tb := traceBodies(7), traceBodies(7)
	for i := range ta {
		if !bytes.Equal(ta[i], tb[i]) {
			t.Fatalf("trace op %d differs between two generations of seed 7", i)
		}
	}
}

func TestSeedsGiveDifferentInputs(t *testing.T) {
	differ := func(a, b [][]byte) bool {
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				return true
			}
		}
		return false
	}
	if !differ(checkBodies(t, 1), checkBodies(t, 2)) {
		t.Error("seeds 1 and 2 give the same /v1/check inputs")
	}
	if !differ(traceBodies(1), traceBodies(2)) {
		t.Error("seeds 1 and 2 give the same trace inputs")
	}
}

// No two ops of a miss workload send the same canonical input.
func TestMissOpsNeverRepeatCanonicalInput(t *testing.T) {
	in, err := genCheckInputs(3, litmusDir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int64{}
	for k := int64(0); k < opsToCheck; k++ {
		_, body := in.miss(k)
		var req serve.CheckRequest
		if err := decodeStrict(body, &req); err != nil {
			t.Fatal(err)
		}
		named, o, err := observer.ParsePairString(req.Pair)
		if err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
		var canon strings.Builder
		if err := observer.FormatPair(&canon, named, o); err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[canon.String()]; dup {
			t.Fatalf("ops %d and %d send the same canonical pair", prev, k)
		}
		seen[canon.String()] = k
	}
	tin := genTraceInputs(3)
	seen = map[string]int64{}
	for k := int64(0); k < opsToCheck; k++ {
		c, streamed, body := tin.op(k)
		text := string(body)
		if streamed {
			// The canonical form of a stream is the trace it assembles.
			events, err := stream.ReadNDJSON(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			chk := stream.New(stream.Options{})
			for _, ev := range events {
				if _, err := chk.Ingest(ev); err != nil {
					t.Fatalf("op %d (%s): %v", k, c.label, err)
				}
			}
			var b strings.Builder
			if err := chk.Trace().Format(&b); err != nil {
				t.Fatal(err)
			}
			text = b.String()
		} else {
			var req serve.VerifyRequest
			if err := decodeStrict(body, &req); err != nil {
				t.Fatal(err)
			}
			nt, err := trace.ParseTraceString(req.Trace)
			if err != nil {
				t.Fatalf("op %d (%s): %v", k, c.label, err)
			}
			var b strings.Builder
			if err := nt.Format(&b); err != nil {
				t.Fatal(err)
			}
			text = b.String()
		}
		if prev, dup := seen[text]; dup {
			t.Fatalf("trace ops %d and %d send the same trace", prev, k)
		}
		seen[text] = k
	}
}

// Every generated /v1/check input gets its known answer from the
// deciders, in the same shape the benchmark checks responses.
func TestCheckKnownAnswers(t *testing.T) {
	in, err := genCheckInputs(5, litmusDir)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for k := int64(0); k < opsToCheck; k++ {
		c, body := in.miss(k)
		var req serve.CheckRequest
		if err := decodeStrict(body, &req); err != nil {
			t.Fatal(err)
		}
		named, o, err := observer.ParsePairString(req.Pair)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]search.Verdict{}
		for _, m := range memmodel.ModelNames() {
			d, err := memmodel.DecideByName(context.Background(), m, named.Comp, o, memmodel.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got[m] = d.Verdict
		}
		if err := checkVerdicts(c, got); err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
		kinds[c.kind]++
	}
	for _, kind := range []string{"lastwriter", "litmus", "perturbed"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s ops generated", kind)
		}
	}
}

// A wrong verdict, or one that breaks an inclusion, fails the check.
func TestCheckVerdictsRejects(t *testing.T) {
	c := &checkCase{label: "x", want: map[string]bool{"SC": false, "LC": true}}
	all := func(in bool) map[string]search.Verdict {
		got := map[string]search.Verdict{}
		for _, m := range memmodel.ModelNames() {
			got[m] = search.Verdict{Decided: true, Member: in}
		}
		return got
	}
	got := all(true)
	got["SC"] = search.VerdictOut()
	if err := checkVerdicts(c, got); err != nil {
		t.Fatalf("consistent answer rejected: %v", err)
	}
	if err := checkVerdicts(c, all(true)); err == nil {
		t.Error("SC=IN accepted against a known OUT")
	}
	got["NN"] = search.VerdictOut()
	if err := checkVerdicts(c, got); err == nil {
		t.Error("LC=IN with NN=OUT accepted")
	}
	got = all(true)
	got["SC"] = search.VerdictOut()
	delete(got, "WW")
	if err := checkVerdicts(c, got); err == nil {
		t.Error("missing verdict accepted")
	}
	got["WW"] = search.VerdictInconclusive(search.StopDeadline)
	if err := checkVerdicts(c, got); err == nil {
		t.Error("inconclusive verdict accepted")
	}
}

// An answer equal to a checked one once its op's tag is taken out
// passes without a full check; any other answer gets the full check,
// and one that fails it is not remembered.
func TestCheckedAnswers(t *testing.T) {
	var a checkedAnswers
	calls := 0
	pass := func([]byte) error { calls++; return nil }
	fail := func([]byte) error { calls++; return errors.New("wrong verdict") }
	base, other := new(int), new(int)
	for i, step := range []struct {
		base      any
		tag, data string
		full      func([]byte) error
		wantErr   bool
		wantCalls int
	}{
		{base, "k1", `["a_k1 b_k1"]`, fail, true, 1},
		{base, "k2", `["a_k2 b_k2"]`, pass, false, 2},
		{base, "k3", `["a_k3 b_k3"]`, fail, false, 2},
		{base, "k4", `["b_k4 a_k4"]`, fail, true, 3},
		{other, "k5", `["a_k5 b_k5"]`, pass, false, 4},
		{base, "k6", `["a_k66 b_k66"]`, fail, true, 5},
		{base, "", `["a b"]`, fail, false, 5},
	} {
		err := a.check(step.base, step.tag, []byte(step.data), step.full)
		if (err != nil) != step.wantErr || calls != step.wantCalls {
			t.Errorf("step %d: err %v after %d full checks; want error %v after %d", i, err, calls, step.wantErr, step.wantCalls)
		}
	}
}

// Every trace kind has the known answer the construction claims,
// post-mortem and streamed, and mid-stream violations name only models
// the trace violates.
func TestTraceKnownAnswers(t *testing.T) {
	in := genTraceInputs(9)
	online := 0
	for k := int64(0); k < opsToCheck; k++ {
		c, streamed, body := in.op(k)
		var lc, sc search.Verdict
		if streamed {
			events, err := stream.ReadNDJSON(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			chk := stream.New(stream.Options{})
			for _, ev := range events {
				v, err := chk.Ingest(ev)
				if err != nil {
					t.Fatal(err)
				}
				if v == nil {
					continue
				}
				online++
				for _, m := range v.Models {
					if (m == "LC" && c.lc) || (m == "SC" && c.sc) {
						t.Fatalf("op %d (%s): mid-stream %s violation of an explainable trace", k, c.label, m)
					}
				}
			}
			fin := chk.Finish(context.Background(), checker.SearchOptions{})
			lc, sc = fin.LC, fin.SC
		} else {
			var req serve.VerifyRequest
			if err := decodeStrict(body, &req); err != nil {
				t.Fatal(err)
			}
			nt, err := trace.ParseTraceString(req.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if !nt.Trace.Explainable() {
				t.Fatalf("op %d (%s): not explainable", k, c.label)
			}
			_, lc, _ = checker.VerifyLCCtx(context.Background(), nt.Trace, checker.SearchOptions{})
			_, sc, _ = checker.VerifySCCtx(context.Background(), nt.Trace, checker.SearchOptions{})
		}
		res := func(v search.Verdict) *serve.VerifyResult {
			return &serve.VerifyResult{Verdict: v, Text: checker.VerdictText(v)}
		}
		if err := checkTraceVerdicts(c, res(lc), res(sc)); err != nil {
			t.Fatalf("op %d (streamed=%v): %v", k, streamed, err)
		}
	}
	if online == 0 {
		t.Error("no stream saw a mid-stream violation")
	}
}

func TestTemplateRender(t *testing.T) {
	tp := newTemplate("a @@1@@ b @@0@@@@1@@.", []string{"x", "y"})
	if got, want := string(tp.render("k7")), "a y_k7 b x_k7y_k7."; got != want {
		t.Errorf("render = %q, want %q", got, want)
	}
}
