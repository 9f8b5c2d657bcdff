package ccm

import (
	"math/rand"
	"testing"

	"repro/internal/backer"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Differential testing across the whole toolkit: for a random corpus of
// computations, every component's view of the same mathematical objects
// must agree. Each subtest is one cross-module invariant.

func corpus(seed int64, count, maxNodes, maxLocs int) []*computation.Computation {
	rng := rand.New(rand.NewSource(seed))
	var out []*computation.Computation
	for len(out) < count {
		n := rng.Intn(maxNodes + 1)
		locs := 1 + rng.Intn(maxLocs)
		g := dag.Random(rng, n, 0.3)
		all := computation.AllOps(locs)
		ops := make([]computation.Op, n)
		for i := range ops {
			ops[i] = all[rng.Intn(len(all))]
		}
		out = append(out, computation.MustFrom(g, ops, locs))
	}
	return out
}

// The full extended lattice holds pointwise on random pairs:
// SC ⊆ LC ⊆ NN ⊆ {NW, WN}; NW ⊆ GSLC ⊆ WW; WN ⊆ WW; Amnesiac ⊆ WN.
func TestDifferentialLattice(t *testing.T) {
	chains := [][]memmodel.Model{
		{memmodel.SC, memmodel.LC, memmodel.NN, memmodel.NW, memmodel.GSLC, memmodel.WW},
		{memmodel.NN, memmodel.WN, memmodel.WW},
		{memmodel.Amnesiac, memmodel.WN},
	}
	for _, c := range corpus(1, 120, 6, 2) {
		if observer.Count(c, 120) >= 120 {
			continue
		}
		observer.Enumerate(c, func(o *observer.Observer) bool {
			for _, chain := range chains {
				for i := 0; i+1 < len(chain); i++ {
					if chain[i].Contains(c, o) && !chain[i+1].Contains(c, o) {
						t.Fatalf("%s ⊆ %s violated at %v / %v",
							chain[i].Name(), chain[i+1].Name(), c, o)
					}
				}
			}
			return true
		})
	}
}

// Model membership and trace verification agree: an observer in SC/LC
// yields a trace the corresponding checker accepts, and an accepted
// trace's witness observer is in the model and reproduces the values.
func TestDifferentialCheckerVsModels(t *testing.T) {
	for _, c := range corpus(2, 150, 7, 2) {
		order, err := c.Dag().TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		o := observer.FromLastWriter(c, order)
		tr := trace.FromObserver(c, o)
		scRes := verifySC(tr)
		if !scRes.OK {
			t.Fatalf("SC observer's trace rejected by VerifySC: %v", c)
		}
		if !memmodel.SC.Contains(c, scRes.Observer) {
			t.Fatal("VerifySC witness not in SC")
		}
		lcRes := verifyLC(tr)
		if !lcRes.OK || !memmodel.LC.Contains(c, lcRes.Observer) {
			t.Fatal("VerifyLC inconsistency")
		}
		// Witness reproduces the read values.
		re := trace.FromObserver(c, lcRes.Observer)
		for u := 0; u < c.NumNodes(); u++ {
			if c.Op(dag.Node(u)).Kind == computation.Read && re.ReadVal[u] != tr.ReadVal[u] {
				t.Fatalf("witness does not explain read %d", u)
			}
		}
	}
}

// Offline BACKER (schedule-driven) and online BACKER (reveal-driven)
// both stay in LC on the same computations, and the serial memory's
// pairs are in every model of the lattice.
func TestDifferentialBackerOnlineOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range corpus(4, 80, 14, 2) {
		s, err := sched.WorkStealing(c, 3, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		off, err := backer.Run(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !verifyLC(off.Trace).OK {
			t.Fatalf("offline BACKER violated LC on %v", c)
		}
		order, err := c.Dag().TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		on, err := memory.Run(memory.NewBacker(3, rng), c, order)
		if err != nil {
			t.Fatal(err)
		}
		if !memmodel.LC.Contains(c, on) {
			t.Fatalf("online BACKER violated LC on %v", c)
		}
		serial, err := memory.Run(memory.NewSerial(), c, order)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []memmodel.Model{memmodel.SC, memmodel.LC, memmodel.NN, memmodel.GSLC, memmodel.WW} {
			if !m.Contains(c, serial) {
				t.Fatalf("serial memory pair outside %s", m.Name())
			}
		}
	}
}

// Monotonicity (Definition 5) holds for every Figure 1 model plus the
// extensions, spot-checked on random relaxations of random pairs.
func TestDifferentialMonotonicity(t *testing.T) {
	models := []memmodel.Model{
		memmodel.SC, memmodel.LC, memmodel.NN, memmodel.NW,
		memmodel.WN, memmodel.WW, memmodel.GSLC, memmodel.Amnesiac,
	}
	for _, c := range corpus(5, 50, 5, 2) {
		if c.Dag().NumEdges() > 8 || observer.Count(c, 60) >= 60 {
			continue
		}
		observer.Enumerate(c, func(o *observer.Observer) bool {
			for _, m := range models {
				if !memmodel.MonotonicAt(m, c, o) {
					t.Fatalf("%s not monotonic at %v / %v", m.Name(), c, o)
				}
			}
			return true
		})
	}
}

// The Graham bound and the span lower bound hold for both schedulers on
// the corpus, and BACKER statistics are internally consistent.
func TestDifferentialSchedulingBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, c := range corpus(7, 80, 20, 1) {
		if c.NumNodes() == 0 {
			continue
		}
		t1, tinf := sched.Work(c, nil), sched.Span(c, nil)
		for _, P := range []int{1, 3, 7} {
			ls, err := sched.ListSchedule(c, P, nil)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := sched.WorkStealing(c, P, nil, rng)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*sched.Schedule{ls, ws} {
				if err := s.Validate(); err != nil {
					t.Fatal(err)
				}
				if s.Makespan < tinf || int64(s.Makespan)*int64(P) < int64(t1) {
					t.Fatalf("makespan %d below lower bounds (T1=%d T∞=%d P=%d)", s.Makespan, t1, tinf, P)
				}
				if s.Makespan > t1 {
					t.Fatalf("makespan %d above T1=%d", s.Makespan, t1)
				}
			}
		}
	}
}
