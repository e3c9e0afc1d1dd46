package oblivious

import (
	"context"
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/gpopt"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestPerfExactSpans covers the serial slave-LP chain's tracing: with a
// tracer in the context, PerfExactCtx must record one perf_exact span with
// an lp.solve child per link, and must return exactly the value of an
// untraced PerfExact on the same routing (tracing never touches the
// numeric path).
func TestPerfExactSpans(t *testing.T) {
	g, ids := fig1Graph()
	dags := fig1cDAGs(t, g, ids)
	r := goldenRouting(t, g, ids, dags)
	ev := NewEvaluator(g, dags, box02(g, ids), EvalConfig{Samples: 16, Seed: 1})

	plain, err := ev.PerfExact(r)
	if err != nil {
		t.Fatal(err)
	}

	tracer := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tracer)
	traced, err := ev.PerfExactCtx(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Ratio != plain.Ratio {
		t.Fatalf("traced PerfExact = %g, untraced = %g", traced.Ratio, plain.Ratio)
	}
	if math.Abs(traced.Ratio-(math.Sqrt(5)-1)) > 1e-6 {
		t.Fatalf("PerfExact = %g, want %g", traced.Ratio, math.Sqrt(5)-1)
	}

	var roots, solves int
	for _, rec := range tracer.Records() {
		switch rec.Name {
		case "oblivious.perf_exact":
			roots++
		case "lp.solve":
			solves++
		}
	}
	if roots != 1 {
		t.Fatalf("recorded %d perf_exact spans, want 1", roots)
	}
	if want := g.NumEdges(); solves != want {
		t.Fatalf("recorded %d lp.solve spans, want one per link (%d)", solves, want)
	}
}

// TestAdversarySpanCountsPruning covers the adversary's work attribution:
// every oblivious.adversary span splits its candidates into solved and
// pruned ones (memo hits are the rest), and the pruned counts add up to
// what coyote_oblivious_candidates_pruned_total gained.
func TestAdversarySpanCountsPruning(t *testing.T) {
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	ev := NewEvaluator(g, dags, demand.MarginBox(demand.Gravity(g, 1), 2), EvalConfig{Samples: 3, Seed: 1})
	tracer := obs.NewTracer()
	before := mPruned.Value()
	OptimizeWithEvaluator(g, dags, ev, Options{
		Optimizer: gpopt.Config{Iters: 120},
		AdvIters:  2,
		Ctx:       obs.WithTracer(context.Background(), tracer),
	})
	var spans, pruned int
	for _, rec := range tracer.Records() {
		if rec.Name != "oblivious.adversary" {
			continue
		}
		spans++
		attr := map[string]int{}
		for _, a := range rec.Attrs {
			if v, ok := a.Val.(int); ok {
				attr[a.Key] = v
			}
		}
		if attr["solved"]+attr["pruned"] > attr["candidates"] {
			t.Fatalf("span solved %d + pruned %d exceeds candidates %d", attr["solved"], attr["pruned"], attr["candidates"])
		}
		pruned += attr["pruned"]
	}
	if spans == 0 || pruned == 0 {
		t.Fatalf("%d adversary spans, %d pruned: pruning not attributed", spans, pruned)
	}
	if got := mPruned.Value() - before; got != uint64(pruned) {
		t.Fatalf("pruned counter gained %d, spans report %d", got, pruned)
	}
}
