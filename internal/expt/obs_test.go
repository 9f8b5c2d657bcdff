package expt

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestReportOK(t *testing.T) {
	if !(StarReport{}).OK() || (StarReport{FirstMismatch: "size 2: ..."}).OK() {
		t.Fatal("StarReport.OK must mirror FirstMismatch")
	}
	all := PropertyReport{Complete: true, Monotonic: true, ConstructibleAug: true}
	if !all.OK() {
		t.Fatal("all-true PropertyReport not OK")
	}
	for _, broken := range []PropertyReport{
		{Monotonic: true, ConstructibleAug: true},
		{Complete: true, ConstructibleAug: true},
		{Complete: true, Monotonic: true},
	} {
		if broken.OK() {
			t.Fatalf("PropertyReport %+v reported OK", broken)
		}
	}
}

// TestMembershipCensusParallelMatchesSerial: the census table does not
// depend on the worker count.
func TestMembershipCensusParallelMatchesSerial(t *testing.T) {
	want, err := MembershipCensus(context.Background(), 3, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := MembershipCensus(context.Background(), 3, 1, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

type phaseLog struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (l *phaseLog) Record(ev obs.Event) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

// TestRunLatticeObsEmitsPhases: an observed lattice run is one
// "pattern sweep" phase over the main universe and, at one location,
// one "SC vs LC" phase for the auxiliary two-location sweep; each phase
// is one sweep run (RunStart, a WorkerDone per worker, RunEnd) under
// its own run label.
func TestRunLatticeObsEmitsPhases(t *testing.T) {
	const workers = 2
	for _, tc := range []struct {
		locs   int
		phases []string // PhaseStart labels, in order
		runs   []string // RunStart labels, in order
	}{
		{1, []string{"pattern sweep", "SC vs LC"}, []string{"lattice-reduced", "SC vs LC"}},
		{2, []string{"pattern sweep"}, []string{"lattice-reduced"}},
	} {
		log := &phaseLog{}
		rep := RunLatticeReduced(3, tc.locs, workers, log)
		if !rep.AllOK() {
			t.Fatalf("locs=%d: lattice check failed:\n%s", tc.locs, rep)
		}
		var phases, starts []string
		done := map[string]int{}
		ends := 0
		log.mu.Lock()
		for _, ev := range log.evs {
			switch ev.Kind {
			case obs.PhaseStart:
				phases = append(phases, ev.Str)
			case obs.RunStart:
				starts = append(starts, ev.Run)
			case obs.WorkerDone:
				done[ev.Run]++
			case obs.RunEnd:
				ends++
			}
		}
		log.mu.Unlock()
		if strings.Join(phases, "|") != strings.Join(tc.phases, "|") {
			t.Fatalf("locs=%d: phases %q, want %q", tc.locs, phases, tc.phases)
		}
		if strings.Join(starts, "|") != strings.Join(tc.runs, "|") || ends != len(tc.runs) {
			t.Fatalf("locs=%d: runs %q with %d ends, want %q", tc.locs, starts, ends, tc.runs)
		}
		for _, run := range tc.runs {
			if done[run] != workers {
				t.Fatalf("locs=%d run %q: %d WorkerDone events, want %d", tc.locs, run, done[run], workers)
			}
		}
	}
}
