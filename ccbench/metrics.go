package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/memmodel"
)

// metricDef names one reported metric; the lists below are the ones
// BENCHMARK.json declares (metrics_test.go keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of a timed run (tracing off).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"success_rate", "ratio", "higher"},
}

// searchModels are the models decided by the search engine.
var searchModels = []string{"SC", "TSO"}

// perLayer are the metrics of a traced run, named <module>.<metric>.
func perLayer() []metricDef {
	defs := []metricDef{
		{"serve.handler_us", "us", "lower"},
		{"serve.residual_us", "us", "lower"},
		{"serve.decode_us", "us", "lower"},
		{"serve.encode_us", "us", "lower"},
		{"serve.key_us", "us", "lower"},
		{"serve.server_ms_mean", "ms", "lower"},
		{"serve.cache_hit_ratio", "ratio", "higher"},
		{"serve.cache_evictions", "count", "lower"},
		{"serve.shed_ratio", "ratio", "lower"},
		{"observer.parse_us", "us", "lower"},
		{"observer.parse_allocs", "count", "lower"},
		{"observer.format_us", "us", "lower"},
	}
	for _, m := range memmodel.ModelNames() {
		defs = append(defs, metricDef{"memmodel.decide_us." + m, "us", "lower"})
	}
	for _, m := range memmodel.ModelNames() {
		defs = append(defs, metricDef{"memmodel.decide_allocs." + m, "count", "lower"})
	}
	defs = append(defs, metricDef{"memmodel.decisions_per_op", "count", "lower"})
	for _, m := range searchModels {
		defs = append(defs,
			metricDef{"search.states." + m, "count", "lower"},
			metricDef{"search.memo_hit_ratio." + m, "ratio", "higher"},
			metricDef{"search.pruned." + m, "count", "higher"},
			metricDef{"search.sleep_set_pruned." + m, "count", "higher"},
		)
	}
	return append(defs,
		metricDef{"trace.parse_us", "us", "lower"},
		metricDef{"trace.format_us", "us", "lower"},
		metricDef{"checker.verify_lc_us", "us", "lower"},
		metricDef{"checker.verify_sc_us", "us", "lower"},
		metricDef{"checker.states.LC", "count", "lower"},
		metricDef{"checker.states.SC", "count", "lower"},
		metricDef{"stream.parse_event_us", "us", "lower"},
		metricDef{"stream.ingest_us", "us", "lower"},
		metricDef{"stream.finish_us", "us", "lower"},
		metricDef{"stream.events_per_op", "count", "lower"},
		metricDef{"stream.midstream_violation_ratio", "ratio", "higher"},
		metricDef{"enum.enumerate_ms", "ms", "lower"},
		metricDef{"enum.representatives", "count", "lower"},
		metricDef{"dag.symmetry_skipped", "count", "higher"},
		metricDef{"dag.orbits", "count", "higher"},
		metricDef{"expt.sweep_ms", "ms", "lower"},
		metricDef{"expt.decide_ns_per_pair", "ns", "lower"},
		metricDef{"bench.layer_coverage", "ratio", "higher"},
		metricDef{"bench.tracing_overhead_pct", "%", "lower"},
	)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult fills every metric of defs from values (absent = 0: the
// layer is not on this workload's path).
func newResult(defs []metricDef, values map[string]float64, attempted, failed int64, correct bool) result {
	r := result{Correct: correct && failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r
}

func (r result) write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// ms, us and secs convert durations to float units.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// quantile returns the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
