// Command ccbench is the repository's benchmark: it measures one named
// workload and prints one JSON result line (see README.md).
//
//	ccbench -ccmd <ccmd binary> --workload check-miss --seed 7 --seconds 20 --trace 0
//
// The serving workloads (check-hot, check-miss, trace-miss) drive a
// fresh ccmd daemon over loopback from a closed loop of two clients;
// lattice runs the paper's Figure-1 sweep in-process. BENCHMARK.json
// lists all but check-hot, which is too sensitive to the host for a
// gated run and is run by hand. With --trace 0
// the result carries the end-to-end metrics; with --trace 1 it carries
// the per-layer metrics of a traced in-process replay. Every verdict
// is checked against a known answer, and the run exits non-zero
// without a result line when it cannot measure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// litmusCorpus is the litmus fixtures and their golden verdicts,
// relative to the repository root the benchmark runs from.
const litmusCorpus = "testdata/litmus"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "check-hot, check-miss, trace-miss or lattice")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Int("seconds", 10, "measured duration")
	traced := fs.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	ccmd := fs.String("ccmd", "", "ccmd binary built from the tree under test (serving workloads)")
	spans := fs.String("spans", "", "file the traced run writes its spans to, as Chrome trace JSON (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "ccbench: usage: --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	d := time.Duration(*seconds) * time.Second
	var res result
	var err error
	switch {
	case *workload == "lattice" && *traced == 0:
		res, err = runLattice(d)
	case *workload == "lattice":
		res, err = traceLattice(d, *spans)
	default:
		if *ccmd == "" {
			fmt.Fprintln(stderr, "ccbench: -ccmd is required for serving workloads")
			return 2
		}
		res, err = runServingWorkload(*workload, *seed, *ccmd, d, *traced == 1, *spans, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ccbench: %v\n", err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintf(stderr, "ccbench: %v\n", err)
		return 1
	}
	return 0
}

// runServingWorkload measures a serving workload; traced runs add the
// in-process replay after the daemon run.
func runServingWorkload(workload string, seed int64, bin string, d time.Duration, traced bool, spans string, stderr io.Writer) (result, error) {
	l, err := newServingLoad(workload, seed, litmusCorpus)
	if err != nil {
		return result{}, err
	}
	errs := &errorLog{}
	r, err := runServing(l, bin, d, errs)
	if err != nil {
		return result{}, err
	}
	errs.dump(stderr)
	if r.trafficErr != nil {
		fmt.Fprintf(stderr, "ccbench: traffic check: %v\n", r.trafficErr)
	}
	ok := r.trafficErr == nil
	if !traced {
		return newResult(endToEnd, r.endToEndValues(), r.loop.attempted, r.loop.failed, ok), nil
	}
	values := r.serveValues(l.endpoints)
	rep, err := replay(workload, seed, litmusCorpus, spans)
	if err != nil {
		return result{}, err
	}
	for k, v := range rep.values {
		values[k] = v
	}
	failed := r.loop.failed + rep.failed
	return newResult(perLayer(), values, r.loop.attempted+rep.attempted, failed, ok), nil
}
