package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/enum"
	"repro/internal/obs"
	"repro/internal/observer"
)

func TestRunCensus(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-n", "3"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	for _, model := range []string{"SC", "LC", "WW"} {
		if !strings.Contains(out.String(), model) {
			t.Errorf("census table missing model %s:\n%s", model, out.String())
		}
	}
}

// TestRunCensusWorkersAgree: the parallel sweep must produce the same
// table regardless of shard count.
func TestRunCensusWorkersAgree(t *testing.T) {
	var seq, par bytes.Buffer
	var errb bytes.Buffer
	if code := run([]string{"-n", "3", "-workers", "1"}, &seq, &errb); code != 0 {
		t.Fatalf("sequential run failed: %d; %s", code, errb.String())
	}
	if code := run([]string{"-n", "3", "-workers", "4"}, &par, &errb); code != 0 {
		t.Fatalf("parallel run failed: %d; %s", code, errb.String())
	}
	if seq.String() != par.String() {
		t.Errorf("census depends on worker count:\n%q\n%q", seq.String(), par.String())
	}
}

func TestRunPerSize(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-n", "3", "-persize"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// Header plus one row per size 0..3.
	if len(lines) != 5 {
		t.Fatalf("per-size table has %d lines, want 5:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "size") {
		t.Errorf("missing header: %q", lines[0])
	}
	// Size 1 with one location: one computation (a single write; a
	// lone read cannot be observed) per kind — spot-check the row shape.
	for _, line := range lines[1:] {
		if fields := strings.Fields(line); len(fields) != 4 {
			t.Errorf("malformed row %q", line)
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"positional"}, {"-reduce"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// TestRunReport: the census run participates in the observability
// contract — -report emits a schema-valid report naming the tool.
func TestRunReport(t *testing.T) {
	reportFile := t.TempDir() + "/report.json"
	var out, errb bytes.Buffer
	if code := run([]string{"-n", "2", "-report", reportFile}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d; stderr: %s", code, errb.String())
	}
	report, err := os.ReadFile(reportFile)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := os.ReadFile("../../testdata/report.schema.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateReport(report, schema); err != nil {
		t.Errorf("report violates the schema: %v", err)
	}
	if !strings.Contains(string(report), "enumerate") {
		t.Errorf("report does not name the tool: %s", report)
	}
}

// TestRunReduceMatches: the per-size table, orbit-weighted over
// canonical representatives, must equal a brute-force count over every
// computation of the unreduced universe (orbit weighting preserves
// every total). The census table is pinned the same way, across all of
// its frontends, by cmd/lattice's TestCensusFrontendsAgree.
func TestRunReduceMatches(t *testing.T) {
	for _, tc := range []struct{ n, locs int }{{3, 1}, {3, 2}} {
		var out, errb bytes.Buffer
		args := []string{"-n", strconv.Itoa(tc.n), "-locs", strconv.Itoa(tc.locs), "-persize"}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit code = %d, want 0; stderr: %s", args, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		// Header plus one row per size 0..n.
		if len(lines) != tc.n+2 || !strings.HasPrefix(lines[0], "size") {
			t.Fatalf("%v: malformed per-size table:\n%s", args, out.String())
		}
		for size := 0; size <= tc.n; size++ {
			comps, pairs, maxObs := 0, 0, 0
			enum.EachComputation(size, tc.locs, func(c *computation.Computation) bool {
				k := observer.Count(c, 0)
				comps++
				pairs += k
				maxObs = max(maxObs, k)
				return true
			})
			want := fmt.Sprintf("%d %d %d %d", size, comps, pairs, maxObs)
			if got := strings.Join(strings.Fields(lines[size+1]), " "); got != want {
				t.Errorf("%v size %d: row %q, brute force %q", args, size, got, want)
			}
		}
	}
}
