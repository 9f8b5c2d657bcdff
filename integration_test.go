package ccm

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/observer"
	"repro/internal/paperfig"
	"repro/internal/trace"
)

// Integration: the testdata pair files (the same files cmd/ccmc
// consumes) parse, validate, and carry exactly the memberships the
// paper claims for the corresponding figures.
func TestTestdataFigures(t *testing.T) {
	cases := []struct {
		file    string
		in, out []string
	}{
		{"figure2.ccm", []string{"WW", "NW"}, []string{"WN", "NN", "LC", "SC"}},
		{"figure3.ccm", []string{"WW", "WN"}, []string{"NW", "NN", "LC", "SC"}},
		{"figure4_prefix.ccm", []string{"NN", "NW", "WN", "WW"}, []string{"LC", "SC"}},
		{"dekker.ccm", []string{"LC", "NN", "WW"}, []string{"SC"}},
	}
	models := map[string]Model{
		"SC": SC, "LC": LC, "NN": NN, "NW": NW, "WN": WN, "WW": WW,
	}
	for _, tc := range cases {
		f, err := os.Open(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		named, obs, err := observer.ParsePair(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		for _, name := range tc.in {
			if !models[name].Contains(named.Comp, obs) {
				t.Errorf("%s: expected IN %s", tc.file, name)
			}
		}
		for _, name := range tc.out {
			if models[name].Contains(named.Comp, obs) {
				t.Errorf("%s: expected NOT in %s", tc.file, name)
			}
		}
	}
}

// The testdata figure files must denote the same pairs as the
// programmatic fixtures in internal/paperfig (up to node numbering,
// which both use identically).
func TestTestdataMatchesFixtures(t *testing.T) {
	check := func(file string, comp interface{ String() string }, obsKey string) {
		f, err := os.Open(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		named, obs, err := observer.ParsePair(f)
		if err != nil {
			t.Fatal(err)
		}
		if named.Comp.String() != comp.String() {
			t.Errorf("%s: computation %s != fixture %s", file, named.Comp, comp)
		}
		if obs.Key() != obsKey {
			t.Errorf("%s: observer differs from fixture", file)
		}
	}
	fig2 := paperfig.Figure2()
	check("figure2.ccm", fig2.Comp, fig2.Obs.Key())
	fig3 := paperfig.Figure3()
	check("figure3.ccm", fig3.Comp, fig3.Obs.Key())
	fig4 := paperfig.Figure4()
	check("figure4_prefix.ccm", fig4.Prefix, fig4.PrefixObs.Key())
	dek := paperfig.Dekker()
	check("dekker.ccm", dek.Comp, dek.Obs.Key())
}

// The testdata trace files (the same files cmd/verify consumes) parse
// and classify as documented in their headers.
func TestTestdataTraces(t *testing.T) {
	cases := []struct {
		file             string
		allowSC, allowLC bool
	}{
		{"mp_stale.trace", false, true},
		{"corr_violation.trace", false, false},
	}
	for _, tc := range cases {
		f, err := os.Open(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		nt, err := trace.ParseTrace(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if got := verifySC(nt.Trace).OK; got != tc.allowSC {
			t.Errorf("%s: SC = %v, want %v", tc.file, got, tc.allowSC)
		}
		if got := verifyLC(nt.Trace).OK; got != tc.allowLC {
			t.Errorf("%s: LC = %v, want %v", tc.file, got, tc.allowLC)
		}
	}
}

// End-to-end: the Figure 4 extension drama through the public facade.
func TestFigure4EndToEnd(t *testing.T) {
	fx := paperfig.Figure4()
	if !NN.Contains(fx.Prefix, fx.PrefixObs) {
		t.Fatal("prefix must be in NN")
	}
	ext, _ := fx.Extend(N)
	if memmodel.CanExtend(NN, fx.Prefix, fx.PrefixObs, ext) {
		t.Fatal("NN must not extend")
	}
	if !memmodel.CanExtend(LC, fx.Prefix, observerLastWriter(t, fx), ext) {
		t.Fatal("LC must extend its own pairs")
	}
}

func observerLastWriter(t *testing.T, fx paperfig.Figure4Fixture) *Observer {
	t.Helper()
	order, err := fx.Prefix.Dag().TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	return LastWriterObserver(fx.Prefix, order)
}
