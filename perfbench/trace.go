package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/coyote-te/coyote/internal/obs"
)

// layerCatalog is every per-layer metric a traced run prints, with its
// unit. A workload that bypasses a layer reports 0 for its metrics.
// Unless marked otherwise a metric is per op of the traced run.
var layerCatalog = []struct{ name, unit string }{
	{"lp.solves", "count"},
	{"lp.iterations", "count"},
	{"lp.dual_iterations", "count"},
	{"lp.phase1_iterations", "count"},
	{"lp.refactorizations", "count"},
	{"lp.warm_hit_ratio", "ratio"},  // warm hits / warm attempts
	{"lp.dense_fallbacks", "count"}, // total, must be 0
	{"oblivious.adversary_s", "s"},  // busy time of oblivious.adversary spans
	{"oblivious.adversary_calls", "count"},
	{"oblivious.candidates", "count"}, // corner candidates normalized
	{"oblivious.ecmp_guarantee_s", "s"},
	{"lp.solves_per_candidate", "ratio"}, // memo-miss share: LP solves / candidates
	{"gpopt.run_s", "s"},
	{"gpopt.runs", "count"},
	{"dagx.build_s", "s"},
	{"spf.affected_nodes", "count"}, // per link event
	{"spf.repair_s", "s"},           // per link event, all destinations
	{"failover.precompute_s", "s"},  // once per session
	{"failover.scenarios", "count"}, // once per session
	{"delta.event_s", "s"},          // per session event (elapsed_ns)
	{"delta.warm_ratio", "ratio"},   // warm events / events
	{"delta.outer_iters", "count"},  // per session event
	{"delta.scenarios", "count"},    // per session event
	{"serve.overhead_s", "s"},       // p50 of round trip − elapsed_ns
	{"serve.response_bytes", "B"},
	{"lies.synth_s", "s"},         // per lie synthesis
	{"lies.fake_nodes", "count"},  // per lie synthesis
	{"lies.churn", "count"},       // LSAs per /lies
	{"sweep.unit_s", "s"},         // p50 of UnitStatus.Elapsed
	{"sweep.cache_hits", "count"}, // total, must be 0
	{"par.tasks", "count"},
	{"par.queue_wait_s", "s"},
	{"trace.ops_ratio", "ratio"}, // traced ops_per_s / untraced ops_per_s
}

// layerMetrics holds a traced run's per-layer values by catalog name.
type layerMetrics map[string]float64

// runTraced makes an untraced reference pass of the workload (for the
// tracing overhead and, on cold-corpus, the bit-for-bit reference), then
// sets it up again with a tracer attached and measures it once more. The
// per-layer metrics come from the traced loop only.
func runTraced(stdout io.Writer, name string, seed int64, mk func(int64) (workload, error), dur time.Duration) (result, error) {
	w, err := mk(seed)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	if err := w.setup(nil); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	fmt.Fprintln(stdout, "untraced reference loop:")
	ref := measure(context.Background(), w, dur, newRecorder())
	refRes := finish(stdout, ref)
	w.close()

	tr := obs.NewTracer()
	if err := w.setup(tr); err != nil {
		return result{}, fmt.Errorf("traced setup: %w", err)
	}
	ctx, span := obs.StartSpan(obs.WithTracer(context.Background(), tr), "bench.measure")
	fmt.Fprintln(stdout, "traced loop:")
	rec := newRecorder()
	ph := measure(ctx, w, dur, rec)
	span.End()
	res := finish(stdout, ph)

	recs := tr.Records()
	var window interval
	for _, r := range recs {
		if r.Name == "bench.measure" {
			window = interval{r.Start, r.Start + r.Dur}
		}
	}
	var measured []obs.SpanRecord
	for _, r := range recs {
		if r.Start >= window.start && r.Start+r.Dur <= window.end {
			measured = append(measured, r)
		}
	}

	ops := float64(len(rec.ops))
	lm := layerMetrics{}
	d := ph.delta
	lm["lp.solves"] = d.value("coyote_lp_solves_total") / ops
	lm["lp.iterations"] = d.value("coyote_lp_iterations_total") / ops
	lm["lp.dual_iterations"] = d.value("coyote_lp_dual_iterations_total") / ops
	lm["lp.phase1_iterations"] = d.value("coyote_lp_phase1_iterations_total") / ops
	lm["lp.refactorizations"] = d.value("coyote_lp_refactorizations_total") / ops
	lm["lp.warm_hit_ratio"] = ratio(d.value("coyote_lp_warm_hits_total"), d.value("coyote_lp_warm_attempts_total"))
	lm["lp.dense_fallbacks"] = d.value("coyote_lp_dense_fallbacks_total")
	lm["par.tasks"] = d.value("coyote_par_tasks_total") / ops
	lm["par.queue_wait_s"] = d.value("coyote_par_queue_wait_seconds_sum") / ops

	adv := spanSums(measured, "oblivious.adversary", "candidates")
	lm["oblivious.adversary_s"] = adv.dur.Seconds() / ops
	lm["oblivious.adversary_calls"] = float64(adv.count) / ops
	lm["oblivious.candidates"] = adv.attr / ops
	lm["lp.solves_per_candidate"] = ratio(d.value("coyote_lp_solves_total"), adv.attr)
	lm["oblivious.ecmp_guarantee_s"] = spanSums(measured, "oblivious.ecmp_guarantee", "").dur.Seconds() / ops
	gp := spanSums(measured, "gpopt.run", "")
	lm["gpopt.run_s"] = gp.dur.Seconds() / ops
	lm["gpopt.runs"] = float64(gp.count) / ops

	w.layers(lm, recs, ph)

	untraced := float64(len(ref.rec.ops)) / ref.elapsed.Seconds()
	traced := ops / ph.elapsed.Seconds()
	lm["trace.ops_ratio"] = traced / untraced
	fmt.Fprintf(stdout, "tracing overhead: traced ops_per_s %.4f vs untraced %.4f (ratio %.3f)\n",
		traced, untraced, traced/untraced)
	rec.printLatencies(stdout)
	printSpanTable(stdout, measured)
	if err := writeTrace(tr, name, seed); err != nil {
		fmt.Fprintln(stdout, "trace not written:", err)
	}

	res.Attempted += refRes.Attempted
	res.Failed += refRes.Failed
	res.Correct = res.Correct && refRes.Correct
	res.Metrics = make(map[string]metric, len(layerCatalog))
	for _, m := range layerCatalog {
		res.Metrics[m.name] = metric{lm[m.name], m.unit}
	}
	return res, nil
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	count int
	dur   time.Duration
	attr  float64 // sum of a numeric attribute
}

func spanSums(recs []obs.SpanRecord, name, attr string) spanTotals {
	var t spanTotals
	for _, r := range recs {
		if r.Name != name {
			continue
		}
		t.count++
		t.dur += r.Dur
		if attr != "" {
			t.attr += attrNum(r, attr)
		}
	}
	return t
}

func attrNum(r obs.SpanRecord, key string) float64 {
	for _, a := range r.Attrs {
		if a.Key != key {
			continue
		}
		switch v := a.Val.(type) {
		case int:
			return float64(v)
		case int64:
			return float64(v)
		case float64:
			return v
		}
	}
	return 0
}

// spanStat is one row of the self-time table.
type spanStat struct {
	name        string
	count       int
	total, self time.Duration
}

// spanStats computes per-name totals and self times. Program spans that
// start a tree of their own (session transitions, whose tracer context
// is the session's, not the request's) are adopted by the innermost
// benchmark span that encloses them in time: with one closed-loop client,
// that is the request that caused them.
func spanStats(recs []obs.SpanRecord) []spanStat {
	iv := func(r obs.SpanRecord) interval { return interval{r.Start, r.Start + r.Dur} }
	var bench []obs.SpanRecord
	for _, r := range recs {
		if strings.HasPrefix(r.Name, "bench.") {
			bench = append(bench, r)
		}
	}
	children := make(map[uint64][]interval)
	for _, r := range recs {
		parent := r.Parent
		if parent == 0 && !strings.HasPrefix(r.Name, "bench.") {
			var best time.Duration = -1
			for _, b := range bench {
				if b.Start <= r.Start && b.Start+b.Dur >= r.Start+r.Dur && (best < 0 || b.Dur < best) {
					parent, best = b.ID, b.Dur
				}
			}
		}
		if parent != 0 {
			children[parent] = append(children[parent], iv(r))
		}
	}
	byName := make(map[string]*spanStat)
	for _, r := range recs {
		st := byName[r.Name]
		if st == nil {
			st = &spanStat{name: r.Name}
			byName[r.Name] = st
		}
		st.count++
		st.total += r.Dur
		st.self += selfTime(iv(r), children[r.ID])
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

func printSpanTable(w io.Writer, recs []obs.SpanRecord) {
	fmt.Fprintf(w, "%-28s %7s %12s %12s\n", "span (measured phase)", "count", "total_s", "self_s")
	for _, st := range spanStats(recs) {
		fmt.Fprintf(w, "%-28s %7d %12.6f %12.6f\n", st.name, st.count, st.total.Seconds(), st.self.Seconds())
	}
}

// writeTrace writes the traced run's spans as JSONL under the build
// directory of the checkout.
func writeTrace(tr *obs.Tracer, name string, seed int64) error {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildDir holds what the benchmark writes (its build, sweep caches,
// traces), relative to the checkout root it runs from.
const buildDir = ".bench_build"
