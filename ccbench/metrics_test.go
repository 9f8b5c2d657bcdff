package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// BENCHMARK.json declares exactly the workloads and metrics this
// program runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	// check-hot is run by hand only (README.md, "Workloads").
	if want := []string{"check-miss", "trace-miss", "lattice"}; !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, program has %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: declared %+v, program has %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer())
}

func TestWindowValues(t *testing.T) {
	ms := time.Millisecond
	// Four windows; the hypervisor stole half of window 1 and a tenth
	// of window 3, so windows 0 and 2 are the calmest (a quarter, and
	// the window tied with it).
	at := func(cpu time.Duration, steal, total int64) mark {
		return mark{cpu: cpu, host: hostTicks{steal: steal, total: total}}
	}
	st := loopStats{marks: []mark{at(0, 0, 0), at(100*ms, 0, 200), at(150*ms, 100, 400), at(350*ms, 100, 600), at(400*ms, 120, 800)}}
	// Window 0: 2 ops of 1ms and 3ms; window 1: 1 op of 50ms;
	// window 2: 4 ops of 2ms; window 3: 1 op of 40ms. The op ending
	// past the last window is not counted.
	for _, s := range []sample{{100 * ms, 1 * ms}, {900 * ms, 3 * ms}, {1500 * ms, 50 * ms},
		{2100 * ms, 2 * ms}, {2200 * ms, 2 * ms}, {2300 * ms, 2 * ms}, {2400 * ms, 2 * ms}, {3500 * ms, 40 * ms}, {4100 * ms, 9 * ms}} {
		st.samples = append(st.samples, s)
	}
	v := st.windowValues()
	for name, want := range map[string]float64{
		"throughput_ops_s": 3,  // 6 ops in 2 s
		"latency_p50_ms":   2,  // of 1, 2, 2, 2, 2, 3
		"latency_p99_ms":   3,  // nearest rank
		"cpu_ms_per_op":    50, // (100 + 200) / 6
	} {
		if v[name] != want {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
}

func TestCalmest(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0.3, 0, 0.1, 0, 0.2}, []int{1, 3}},
		{[]float64{0.7, 0.1, 0.6, 0.2, 0.5, 0.3, 0.4, 0.8}, []int{1, 3}},
		{[]float64{0.2, 0.1, 0.1, 0.1, 0.3}, []int{1, 2, 3}},
		{[]float64{0, 0, 0, 0}, []int{0, 1, 2, 3}},
		{nil, []int{}},
	} {
		if got := calmest(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("calmest(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}
