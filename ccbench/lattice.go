package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/expt"
	"repro/internal/obs"
)

// The lattice workload: the paper's Figure-1 machine-check as
// cmd/lattice runs it, in-process.
const (
	latticeNodes   = 4
	latticeLocs    = 1
	latticeWorkers = 2
	// latticeSetups is how many untimed sweeps set-up runs; setup_s is
	// their median.
	latticeSetups = 3
)

// sweep runs one reduced lattice sweep and requires every Figure-1
// edge to match.
func sweep(rec obs.Recorder) (expt.LatticeReport, time.Duration, error) {
	t := time.Now()
	rep := expt.RunLatticeReduced(latticeNodes, latticeLocs, latticeWorkers, rec)
	d := time.Since(t)
	if !rep.AllOK() {
		return rep, d, fmt.Errorf("lattice: Figure 1 mismatch:\n%s", rep)
	}
	return rep, d, nil
}

// runLattice measures the lattice workload with tracing off.
func runLattice(d time.Duration) (result, error) {
	var setups []time.Duration
	for i := 0; i < latticeSetups; i++ {
		_, t, err := sweep(nil)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, t)
	}
	pid := os.Getpid()
	type sweepRun struct {
		lat, cpu time.Duration
		rss      float64 // peak RSS during the sweep, MiB
	}
	var runs []sweepRun
	var steal []float64
	var failed int64
	h0, err := readHostTicks()
	if err != nil {
		return result{}, err
	}
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		c0, err := procCPU(pid)
		if err != nil {
			return result{}, err
		}
		s0, err := readHostTicks()
		if err != nil {
			return result{}, err
		}
		if err := resetPeakRSS(); err != nil {
			return result{}, err
		}
		_, t, err := sweep(nil)
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "ccbench:", err)
		}
		c1, err := procCPU(pid)
		if err != nil {
			return result{}, err
		}
		s1, err := readHostTicks()
		if err != nil {
			return result{}, err
		}
		rss, err := peakRSS(pid)
		if err != nil {
			return result{}, err
		}
		runs = append(runs, sweepRun{lat: t, cpu: c1 - c0, rss: rss})
		steal = append(steal, s1.stealSince(s0))
	}
	h1, err := readHostTicks()
	if err != nil {
		return result{}, err
	}
	reportSteal(os.Stderr, h1.stealSince(h0))
	// The process's peak RSS depends on when its collector ran in the
	// sweep that peaked highest, so one late collection could set the
	// run's value; the median of the sweeps' own peaks does not.
	var rss []float64
	for _, r := range runs {
		rss = append(rss, r.rss)
	}
	// Timings come from the calmest sweeps, as serving timings come
	// from the calmest windows.
	var lats []time.Duration
	var busy, cpu time.Duration
	for _, i := range calmest(steal) {
		lats = append(lats, runs[i].lat)
		busy += runs[i].lat
		cpu += runs[i].cpu
	}
	n := float64(len(lats))
	values := map[string]float64{
		"setup_s":          secs(quantile(setups, 0.5)),
		"throughput_ops_s": n / secs(busy),
		"latency_p50_ms":   ms(quantile(lats, 0.50)),
		"latency_p99_ms":   ms(quantile(lats, 0.99)),
		"cpu_ms_per_op":    ms(cpu) / n,
		"peak_rss_mb":      median(rss),
		"success_rate":     float64(int64(len(runs))-failed) / float64(len(runs)),
	}
	return newResult(endToEnd, values, int64(len(runs)), failed, true), nil
}
