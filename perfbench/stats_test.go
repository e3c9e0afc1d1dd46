package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"github.com/coyote-te/coyote/internal/obs"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{39, 0, false}, // p75 is rank 30: only 9 samples beyond
		{40, 75, true}, // p75 is rank 30: 10 beyond; p90 has 4
		{99, 75, true}, // p90 is rank 90: only 9 beyond
		{100, 90, true},
		{199, 90, true}, // p95 is rank 190: only 9 beyond
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPrintDistSuppressesP90(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	var buf bytes.Buffer
	printDist(&buf, "op", sample(99))
	if out := buf.String(); strings.Contains(out, "op_p90_s") || !strings.Contains(out, "op_p75_s: 75.0") || !strings.Contains(out, "n=99") {
		t.Errorf("99 samples: got %q, want p75 = 75 and no p90", out)
	}
	buf.Reset()
	printDist(&buf, "op", sample(100))
	if out := buf.String(); !strings.Contains(out, "op_p90_s: 90.0") || !strings.Contains(out, "n=100") {
		t.Errorf("100 samples: got %q, want p90 = 90", out)
	}
	buf.Reset()
	printDist(&buf, "op", sample(12))
	if out := buf.String(); strings.Contains(out, "_p75_s") || !strings.Contains(out, "op_p50_s: 6.5") {
		t.Errorf("12 samples: got %q, want median 6.5 and no tail", out)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	parent := ms(0, 100)
	cases := []struct {
		name     string
		children []interval
		want     int // ms
	}{
		{"none", nil, 100},
		{"disjoint", []interval{ms(0, 10), ms(50, 60)}, 80},
		{"overlapping", []interval{ms(10, 30), ms(20, 40)}, 70},
		{"nested", []interval{ms(10, 50), ms(20, 30)}, 60},
		{"chain", []interval{ms(10, 30), ms(30, 40), ms(35, 45)}, 65},
		{"clipped", []interval{ms(-10, 5), ms(90, 120)}, 85},
		{"outside", []interval{ms(100, 120)}, 100},
		{"covering", []interval{ms(0, 100), ms(10, 20)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: selfTime = %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestSpanStatsAdoptsSessionSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	recs := []obs.SpanRecord{
		{ID: 1, Name: "bench.op", Start: ms(0), Dur: ms(200)},
		{ID: 2, Parent: 1, Name: "bench.http", Start: ms(0), Dur: ms(100)},
		{ID: 3, Parent: 1, Name: "bench.http", Start: ms(100), Dur: ms(100)},
		// Session spans start their own trees; each belongs to the request
		// that encloses it.
		{ID: 4, Name: "session.update", Start: ms(10), Dur: ms(80)},
		{ID: 5, Parent: 4, Name: "gpopt.run", Start: ms(20), Dur: ms(30)},
		{ID: 6, Name: "session.lies", Start: ms(120), Dur: ms(50)},
	}
	self := make(map[string]time.Duration)
	for _, st := range spanStats(recs) {
		self[st.name] = st.self
	}
	want := map[string]time.Duration{
		"bench.op":       0,
		"bench.http":     ms(20 + 50),
		"session.update": ms(50),
		"gpopt.run":      ms(30),
		"session.lies":   ms(50),
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
}

func TestPhaseDeltaExcludesOtherPhases(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.NewCounter("work_total", "")
	v := reg.NewCounterVec("labeled_total", "", "kind")
	h := reg.NewHistogram("wait_seconds", "", []float64{1, 10})
	c.Add(5) // set-up
	h.Observe(4)
	v.With("a").Add(7)
	d := phaseDelta(reg, func() {
		c.Add(3)
		h.Observe(2)
		v.With("a").Add(1)
		v.With("b").Add(2)
	})
	c.Add(100) // after the phase
	if got := d.value("work_total"); got != 3 {
		t.Errorf("work_total delta = %v, want 3", got)
	}
	if got := d.value("wait_seconds_sum"); got != 2 {
		t.Errorf("wait_seconds_sum delta = %v, want 2", got)
	}
	if got := d.value("wait_seconds_count"); got != 1 {
		t.Errorf("wait_seconds_count delta = %v, want 1", got)
	}
	if got := d.value("labeled_total"); got != 3 {
		t.Errorf("labeled_total delta = %v, want 3 (both labels, phase only)", got)
	}
}

// countingWorkload bumps a registry counter during set-up, during each
// pass, and after the run.
type countingWorkload struct{ c *obs.Counter }

func (w countingWorkload) setup(*obs.Tracer) error { w.c.Add(1000); return nil }
func (w countingWorkload) pass(_ context.Context, _ int, rec *recorder) {
	w.c.Add(7)
	rec.op(time.Millisecond, nil)
}
func (w countingWorkload) layers(layerMetrics, []obs.SpanRecord, phase) {}
func (w countingWorkload) close()                                       {}

func TestMeasureCountsOnlyTheLoop(t *testing.T) {
	w := countingWorkload{obs.Default.NewCounter("perfbench_test_work_total", "test-only")}
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	w.c.Add(50) // warm-up outside the loop
	rec := newRecorder()
	ph := measure(context.Background(), w, 5*time.Millisecond, rec)
	w.c.Add(1000)
	passes := len(rec.ops)
	if passes < 1 {
		t.Fatalf("measure ran %d passes, want ≥ 1", passes)
	}
	if got, want := ph.delta.value("perfbench_test_work_total"), float64(7*passes); got != want {
		t.Errorf("loop delta = %v, want %v (7 per pass × %d passes)", got, want, passes)
	}
	if rec.digestOps != 1 {
		t.Errorf("digest covered %d ops, want the first pass only (1)", rec.digestOps)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 80); got != 4 {
		t.Errorf("p80 of 1..5 = %v, want 4 (nearest rank)", got)
	}
}
