package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/memmodel"
)

func TestClampInt64(t *testing.T) {
	cases := []struct {
		req, max, want int64
	}{
		{0, 0, 0},    // no ceiling, no request: unlimited
		{5, 0, 5},    // no ceiling: request passes through
		{0, 10, 10},  // no request: ceiling is the default
		{5, 10, 5},   // under ceiling: honored
		{15, 10, 10}, // over ceiling: capped
		{-1, 10, 10}, // negative: treated as "default"
	}
	for _, tc := range cases {
		if got := clampInt64(tc.req, tc.max); got != tc.want {
			t.Errorf("clampInt64(%d, %d) = %d, want %d", tc.req, tc.max, got, tc.want)
		}
	}
}

func TestSearchOptionsClamping(t *testing.T) {
	l := Limits{
		DefaultTimeout: 2 * time.Second,
		MaxTimeout:     10 * time.Second,
		MaxStates:      1000,
		MaxMemoMB:      8,
		MaxWorkers:     4,
	}
	opts, timeout := l.searchOptions(Options{})
	if opts.Budget != 1000 || opts.MaxMemoBytes != 8<<20 || opts.Workers != 4 {
		t.Errorf("defaults not applied: %+v", opts)
	}
	if timeout != 2*time.Second {
		t.Errorf("default timeout = %v, want 2s", timeout)
	}

	opts, timeout = l.searchOptions(Options{TimeoutMS: 500, MaxStates: 100, MaxMemoMB: 2, Workers: 2})
	if opts.Budget != 100 || opts.MaxMemoBytes != 2<<20 || opts.Workers != 2 {
		t.Errorf("under-limit request not honored: %+v", opts)
	}
	if timeout != 500*time.Millisecond {
		t.Errorf("timeout = %v, want 500ms", timeout)
	}

	opts, timeout = l.searchOptions(Options{TimeoutMS: 60_000, MaxStates: 1 << 40, Workers: 99})
	if opts.Budget != 1000 || opts.Workers != 4 {
		t.Errorf("over-limit request not capped: %+v", opts)
	}
	if timeout != 10*time.Second {
		t.Errorf("timeout = %v, want capped at 10s", timeout)
	}
}

func TestSearchOptionsNoLimits(t *testing.T) {
	opts, timeout := Limits{}.searchOptions(Options{MaxStates: 7, Workers: 3})
	if opts.Budget != 7 || opts.Workers != 3 || timeout != 0 {
		t.Errorf("limitless server altered the request: %+v, %v", opts, timeout)
	}
}

// TestOptionsFingerprintExcludesTimeout: the timeout only shapes
// INCONCLUSIVE outcomes, which are never cached, so it must not
// fragment the cache key space.
func TestOptionsFingerprintExcludesTimeout(t *testing.T) {
	l := Limits{MaxStates: 1000}
	a := l.optionsFingerprint(Options{TimeoutMS: 100})
	b := l.optionsFingerprint(Options{TimeoutMS: 9000})
	if a != b {
		t.Errorf("fingerprint varies with timeout: %q vs %q", a, b)
	}
	if l.optionsFingerprint(Options{MaxStates: 10}) == a {
		t.Error("fingerprint ignores the state budget")
	}
}

func TestValidModels(t *testing.T) {
	got, err := validModels(nil)
	if err != nil || strings.Join(got, ",") != strings.Join(memmodel.ModelNames(), ",") {
		t.Errorf("nil request = %v, %v; want every registered model", got, err)
	}
	got, err = validModels([]string{"LC", "SC"})
	if err != nil || got[0] != "LC" || got[1] != "SC" {
		t.Errorf("order not preserved: %v, %v", got, err)
	}
	if _, err := validModels([]string{"PSO"}); err == nil {
		t.Error("unknown model accepted")
	}
}
