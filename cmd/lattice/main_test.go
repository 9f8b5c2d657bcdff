package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/enum"
	"repro/internal/memmodel"
	"repro/internal/observer"
	"repro/internal/serve"
)

// runLattice runs the CLI and returns (exit code, stdout, stderr).
// The witness fixtures live relative to the repo root, so the helper
// points the flag there; explicit -witnesses args in a test override
// it (the last setting of a flag wins).
func runLattice(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append([]string{"-witnesses", "../../testdata/litmus"}, args...), &out, &errb)
	return code, out.String(), errb.String()
}

func TestDefaultLatticeCheck(t *testing.T) {
	code, out, _ := runLattice(t, "-n", "3")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; output:\n%s", code, out)
	}
	for _, want := range []string{"Figure 1 lattice", "SC", "LC", "OK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestWitnessChecks: the default lattice check re-decides the
// committed strictness witnesses and folds them into the exit code —
// a tampered fixture fails the run, a missing directory is an
// environment error, and an empty -witnesses skips the table.
func TestWitnessChecks(t *testing.T) {
	code, out, _ := runLattice(t, "-n", "3")
	if code != 0 || !strings.Contains(out, "strictness witnesses") {
		t.Fatalf("default check: exit %d, witness table missing:\n%s", code, out)
	}
	for _, want := range []string{"TSO ∖ CAUSAL", "RA ∖ CAUSAL", "sb.ccm", "iriw.ccm"} {
		if !strings.Contains(out, want) {
			t.Errorf("witness table missing %q:\n%s", want, out)
		}
	}

	code, out, _ = runLattice(t, "-n", "3", "-witnesses", "")
	if code != 0 || strings.Contains(out, "strictness witnesses") {
		t.Fatalf("-witnesses \"\": exit %d, table skipped=%v", code, !strings.Contains(out, "strictness witnesses"))
	}

	if code, _, errb := runLattice(t, "-n", "3", "-witnesses", filepath.Join(t.TempDir(), "nope")); code != 2 || errb == "" {
		t.Fatalf("missing witness dir: exit %d (want 2), stderr %q", code, errb)
	}

	// Tamper with one fixture: sb.ccm claims TSO ∖ SC, so an SC-member
	// pair in its place must fail the claim and the run.
	dir := t.TempDir()
	src, err := filepath.Glob("../../testdata/litmus/*.ccm")
	if err != nil || len(src) == 0 {
		t.Fatal("no fixtures to copy")
	}
	for _, f := range src {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	scIn, err := os.ReadFile(filepath.Join(dir, "mp_sync.ccm"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sb.ccm"), scIn, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runLattice(t, "-n", "3", "-witnesses", dir)
	if code != 1 || !strings.Contains(out, "MISMATCH") {
		t.Fatalf("tampered fixture: exit %d (want 1), output:\n%s", code, out)
	}
}

func TestCensus(t *testing.T) {
	code, out, _ := runLattice(t, "-n", "3", "-census", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; output:\n%s", code, out)
	}
	for _, m := range []string{"SC", "LC", "NN", "NW", "WN", "WW"} {
		if !strings.Contains(out, m) {
			t.Fatalf("census missing model %s:\n%s", m, out)
		}
	}
}

func TestStarPassAndFail(t *testing.T) {
	code, out, _ := runLattice(t, "-n", "3", "-star", "NN")
	if code != 0 {
		t.Fatalf("passing star: exit code = %d, want 0; output:\n%s", code, out)
	}
	// WN* ≠ LC already at size 2, so the 3-node sweep must fail — and
	// the failure must surface in the exit code, not just the text.
	code, out, _ = runLattice(t, "-n", "3", "-star", "WN")
	if code != 1 {
		t.Fatalf("failing star: exit code = %d, want 1; output:\n%s", code, out)
	}
}

func TestPropsPassAndFail(t *testing.T) {
	code, out, _ := runLattice(t, "-n", "3", "-props", "SC")
	if code != 0 {
		t.Fatalf("passing props: exit code = %d, want 0; output:\n%s", code, out)
	}
	// NN fails the augmentation criterion at 4 nodes (Figure 4).
	code, out, _ = runLattice(t, "-n", "4", "-props", "NN")
	if code != 1 {
		t.Fatalf("failing props: exit code = %d, want 1; output:\n%s", code, out)
	}
}

func TestFindTrapExitCodes(t *testing.T) {
	code, out, _ := runLattice(t, "-n", "3", "-findtrap", "NN")
	if code != 0 || !strings.Contains(out, "no non-constructibility witness") {
		t.Fatalf("trap-free universe: exit code = %d, want 0; output:\n%s", code, out)
	}
	code, out, _ = runLattice(t, "-n", "4", "-findtrap", "NN")
	if code != 1 || !strings.Contains(out, "smallest NN trap") {
		t.Fatalf("trap found: exit code = %d, want 1; output:\n%s", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-no-such-flag"}},
		{"positional arg", []string{"extra"}},
		{"unknown star model", []string{"-star", "XX"}},
		{"unknown props model", []string{"-props", "XX"}},
		{"unknown findtrap model", []string{"-findtrap", "XX"}},
		{"workers with star", []string{"-workers", "2", "-star", "NN"}},
		{"workers with props", []string{"-workers", "2", "-props", "SC", "-n", "3"}},
		{"workers with findtrap", []string{"-workers", "2", "-findtrap", "NN", "-n", "3"}},
	} {
		if code, out, _ := runLattice(t, tc.args...); code != 2 {
			t.Errorf("%s: exit code = %d, want 2; output:\n%s", tc.name, code, out)
		}
	}
}

// -workers is honored (not rejected) on the branches that shard.
func TestWorkersAllowedOnShardedBranches(t *testing.T) {
	if code, out, _ := runLattice(t, "-n", "3", "-workers", "2"); code != 0 {
		t.Fatalf("lattice -workers: exit code = %d, want 0; output:\n%s", code, out)
	}
}

func TestReportFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	code, _, _ := runLattice(t, "-n", "3", "-star", "WN", "-report", path)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Tool     string `json:"tool"`
		ExitCode int    `json:"exit_code"`
		Runs     []struct {
			Name    string `json:"name"`
			Outcome string `json:"outcome"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, data)
	}
	if rep.Tool != "lattice" || rep.ExitCode != 1 {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].Name != "star WN" || rep.Runs[0].Outcome != "FAILED" {
		t.Fatalf("report runs: %+v", rep.Runs)
	}
}

func TestTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, _, _ := runLattice(t, "-n", "3", "-trace", path)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty for a 7-edge lattice check")
	}
}

// TestReduceRejectedOnMutatingBranches: -reduce is gone (every sweep
// is reduced), so it exits 2 as an unknown flag on every branch —
// including -star and -findtrap, which never accepted it.
func TestReduceRejectedOnMutatingBranches(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "3", "-reduce"},
		{"-n", "3", "-reduce", "-census"},
		{"-n", "3", "-reduce", "-star", "NN"},
		{"-n", "3", "-reduce", "-findtrap", "NN"},
	} {
		if code, out, _ := runLattice(t, args...); code != 2 {
			t.Errorf("%v: exit code = %d, want 2; output:\n%s", args, code, out)
		}
	}
}

// TestCensusFrontendsAgree: the membership census has three
// frontends — lattice -census, the enumerate CLI and the daemon's
// POST /v1/enumerate — over one sweep. All three must print the same
// bytes, equal to a table counted here by brute force over every pair
// of the unreduced universe with each registered model's Contains.
func TestCensusFrontendsAgree(t *testing.T) {
	enumerateBin := filepath.Join(t.TempDir(), "enumerate")
	// go test puts its own toolchain first on the PATH.
	build := exec.Command("go", "build", "-o", enumerateBin, "repro/cmd/enumerate")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/enumerate: %v\n%s", err, out)
	}
	srv := httptest.NewServer(serve.New(serve.Config{CacheBytes: 1 << 20}).Handler())
	defer srv.Close()

	for _, sz := range []struct{ n, locs int }{{3, 1}, {2, 2}} {
		n, locs := strconv.Itoa(sz.n), strconv.Itoa(sz.locs)
		want := oracleCensus(sz.n, sz.locs)

		code, lattice, errb := runLattice(t, "-n", n, "-locs", locs, "-census")
		if code != 0 {
			t.Fatalf("lattice -census: exit %d: %s", code, errb)
		}
		enumerate, err := exec.Command(enumerateBin, "-n", n, "-locs", locs).Output()
		if err != nil {
			t.Fatalf("enumerate: %v", err)
		}
		body, err := json.Marshal(serve.EnumerateRequest{MaxNodes: sz.n, Locs: sz.locs})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/enumerate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er serve.EnumerateResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/enumerate: %d %v", resp.StatusCode, err)
		}

		for _, got := range []struct{ name, out string }{
			{"lattice -census", lattice},
			{"enumerate", string(enumerate)},
			{"POST /v1/enumerate", er.Census},
		} {
			if got.out != want {
				t.Errorf("n=%d locs=%d: %s differs from the brute-force census:\n%s\nwant:\n%s",
					sz.n, sz.locs, got.name, got.out, want)
			}
		}
	}
}

// oracleCensus renders the census table from a brute-force count:
// rows ascending by count, equal counts in registry order.
func oracleCensus(maxNodes, numLocs int) string {
	rows := memmodel.Registry()
	counts := make([]int, len(rows))
	total := enum.EachPair(maxNodes, numLocs, func(c *computation.Computation, o *observer.Observer) bool {
		for i, r := range rows {
			if r.Model.Contains(c, o) {
				counts[i]++
			}
		}
		return true
	})
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] < counts[order[b]] })
	var b strings.Builder
	fmt.Fprintf(&b, "membership census over ≤%d nodes, %d location(s): %d pairs total\n", maxNodes, numLocs, total)
	for _, i := range order {
		fmt.Fprintf(&b, "  %-4s %8d\n", rows[i].Model.Name(), counts[i])
	}
	return b.String()
}
