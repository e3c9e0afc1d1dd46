package oblivious

import (
	"context"
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/gpopt"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/spf"
)

// Options configures COYOTE's splitting-ratio computation.
type Options struct {
	Optimizer gpopt.Config // inner GP-style optimizer settings
	Eval      EvalConfig   // adversary settings
	AdvIters  int          // outer adversarial iterations (default 6)
	// Ctx, when it carries an obs.Tracer (obs.WithTracer), records one span
	// per pipeline stage of the adversarial loop — scenario seeding, each
	// optimize/adversary round, the final ECMP guarantee — plus the nested
	// gpopt and evaluator spans. Purely observational: results are
	// bit-identical with or without it. nil means no tracing.
	Ctx context.Context
	// Workers seeds Optimizer.Workers and Eval.Workers when they are
	// unset (≤ 0 = GOMAXPROCS; never changes results). Note that
	// OptimizeWithEvaluator's adversary is the caller-supplied evaluator,
	// which keeps its own EvalConfig.Workers — there the optimizer
	// inherits the evaluator's worker count instead, so one knob (set at
	// NewEvaluator) still governs the whole loop.
	Workers int
	// Warm, when non-nil and built for exactly the (graph, DAGs) being
	// optimized, is reused as the splitting optimizer: θ and the Adam
	// moments carry over from the previous recompute, so the loop refines
	// the prior solution instead of restarting from the near-ECMP init.
	// Its tuning is replaced by Optimizer. A non-matching Warm is ignored.
	Warm *gpopt.Optimizer
	// Carry seeds the finite scenario set with critical demand matrices
	// discovered by earlier recomputes (Report.Critical). Each is
	// re-normalized against the evaluator's OPTDAG; matrices that became
	// unroutable (e.g. after a failure) are silently dropped. This is the
	// Algorithm 1 critical-matrix accumulation extended across recomputes:
	// adversarial corners that still bind need not be re-discovered.
	Carry []*demand.Matrix
}

func (o Options) withDefaults() Options {
	if o.AdvIters <= 0 {
		o.AdvIters = 6
	}
	if o.Workers > 0 {
		if o.Eval.Workers == 0 {
			o.Eval.Workers = o.Workers
		}
		if o.Optimizer.Workers == 0 {
			o.Optimizer.Workers = o.Workers
		}
	}
	return o
}

// Report summarizes an OptimizeSplitting run.
type Report struct {
	Perf          Result // final worst-case evaluation of the returned routing
	OuterIters    int    // adversarial iterations executed
	ScenarioCount int    // scenarios accumulated in the finite optimization set
	ECMPFallback  bool   // true if plain ECMP evaluated no worse and was returned
	// ECMPPerf is the worst-case ratio of traditional ECMP over the same
	// DAGs and uncertainty set, evaluated as part of the no-worse-than-ECMP
	// guarantee (so callers need not re-run the adversary for it).
	ECMPPerf float64
	// Critical lists the demand matrices of the finite scenario set in
	// accumulation order — the critical matrices of Algorithm 1. Feed them
	// back through Options.Carry to warm-start the next recompute's
	// adversary.
	Critical []*demand.Matrix
	// Warm is the optimizer holding the final log-ratio/Adam state. Pass
	// it back through Options.Warm (with the same graph and DAGs) to
	// warm-start the next recompute.
	Warm *gpopt.Optimizer
}

// OptimizeSplitting runs COYOTE's in-DAG traffic-splitting optimization
// (§V-C): it alternates between optimizing the splitting ratios against a
// finite set of demand scenarios (gpopt) and growing that set with the
// current worst-case demand matrix (the Evaluator's adversary), mirroring
// the critical-matrix accumulation of Algorithm 1 and the finite-set
// handling of the geometric program in Appendix C.
//
// The returned routing is never worse (under the same evaluator) than
// traditional ECMP on the embedded shortest-path DAGs, fulfilling the
// paper's "no worse than standard OSPF/ECMP" guarantee.
func OptimizeSplitting(g *graph.Graph, dags []*dagx.DAG, box *demand.Box, opts Options) (*pdrouting.Routing, *Report) {
	opts = opts.withDefaults()
	ev := NewEvaluator(g, dags, box, opts.Eval)
	return optimizeWithEvaluator(g, dags, ev, opts)
}

// OptimizeWithEvaluator is OptimizeSplitting with a caller-supplied
// evaluator, letting experiment sweeps share OPTDAG caches.
func OptimizeWithEvaluator(g *graph.Graph, dags []*dagx.DAG, ev *Evaluator, opts Options) (*pdrouting.Routing, *Report) {
	opts = opts.withDefaults()
	return optimizeWithEvaluator(g, dags, ev, opts)
}

func optimizeWithEvaluator(g *graph.Graph, dags []*dagx.DAG, ev *Evaluator, opts Options) (*pdrouting.Routing, *Report) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.StartSpan(ctx, "oblivious.optimize")
	defer span.End()

	n := g.NumNodes()
	report := &Report{}
	// The optimizer inherits the evaluator's worker pool size unless the
	// caller configured one explicitly, so a single Workers knob controls
	// the whole adversarial loop.
	if opts.Optimizer.Workers == 0 {
		opts.Optimizer.Workers = ev.cfg.Workers
	}

	var scenarios []gpopt.Scenario
	seen := make(map[uint64]bool)
	addScenario := func(D *demand.Matrix, norm float64) bool {
		if D == nil || D.Total() <= 0 || norm <= 0 || math.IsInf(norm, 1) {
			return false
		}
		h := hashMatrix(D)
		if seen[h] {
			return false
		}
		seen[h] = true
		scenarios = append(scenarios, gpopt.NewScenario(g, D, norm))
		report.Critical = append(report.Critical, D)
		return true
	}

	// Seed scenarios: the box maximum, the geometric midpoint (the base
	// matrix of a margin box), then the carry-over — critical matrices
	// from earlier recomputes, re-normalized for these DAGs, so
	// adversarial corners that still bind are not re-discovered over
	// several rounds. Their OPTDAG normalizations are one batch.
	seedCtx, seedSpan := obs.StartSpan(ctx, "oblivious.seed")
	mid := demand.NewMatrix(n)
	for i := range mid.D {
		mid.D[i] = math.Sqrt(ev.Box.Min.D[i] * ev.Box.Max.D[i])
	}
	var seeds []*demand.Matrix
	seedSeen := make(map[uint64]bool)
	for _, D := range append([]*demand.Matrix{ev.Box.Max.Clone(), mid}, opts.Carry...) {
		if D == nil || D.N != n {
			continue
		}
		if h := hashMatrix(D); !seedSeen[h] {
			seedSeen[h] = true
			seeds = append(seeds, D)
		}
	}
	for i, norm := range ev.OptDAGs(seeds) {
		addScenario(seeds[i], norm)
	}

	opt := opts.Warm
	if opt != nil && opt.Matches(g, dags) {
		opt.SetConfig(opts.Optimizer)
	} else {
		opt = gpopt.New(g, dags, opts.Optimizer)
	}
	report.Warm = opt

	// Seed the scenario set with the adversary's verdict on the initial
	// (near-ECMP) routing so the first optimization round already sees the
	// demand patterns that hurt traditional splitting.
	const topK = 4
	for _, res := range ev.PerfTopCtx(seedCtx, opt.Routing(), topK) {
		addScenario(res.WorstDM, res.Norm)
	}
	seedSpan.Attr("scenarios", len(scenarios)).End()

	var bestRouting *pdrouting.Routing
	bestRes := Result{Ratio: math.Inf(1)}
	for iter := 0; iter < opts.AdvIters; iter++ {
		report.OuterIters++
		roundCtx, roundSpan := obs.StartSpan(ctx, "oblivious.round")
		roundSpan.Attr("iter", iter).Attr("scenarios", len(scenarios))
		opt.RunCtx(roundCtx, scenarios)
		r := opt.Routing()
		top := ev.PerfTopCtx(roundCtx, r, topK)
		res := top[0]
		if res.Ratio < bestRes.Ratio {
			bestRes = res
			bestRouting = r
		}
		anyNew := false
		for _, cand := range top {
			if addScenario(cand.WorstDM, cand.Norm) {
				anyNew = true
			}
		}
		roundSpan.Attr("ratio", res.Ratio).Attr("new_scenarios", anyNew).End()
		if !anyNew {
			break // adversary found nothing new
		}
	}
	report.ScenarioCount = len(scenarios)

	// ECMP guarantee: traditional equal splitting over the embedded
	// shortest-path DAGs is a point of the solution space; never return
	// anything that evaluates worse.
	ecmpCtx, ecmpSpan := obs.StartSpan(ctx, "oblivious.ecmp_guarantee")
	ecmp := ECMPOnDAGs(g, dags)
	ecmpRes := ev.PerfTopCtx(ecmpCtx, ecmp, 1)[0]
	ecmpSpan.Attr("ratio", ecmpRes.Ratio).End()
	report.ECMPPerf = ecmpRes.Ratio
	if ecmpRes.Ratio < bestRes.Ratio {
		bestRes = ecmpRes
		bestRouting = ecmp
		report.ECMPFallback = true
	}
	if bestRouting == nil {
		bestRouting = ecmp
		bestRes = ecmpRes
		report.ECMPFallback = true
	}
	report.Perf = bestRes
	return bestRouting, report
}

// ECMPOnDAGs builds traditional ECMP — equal splitting over shortest-path
// next-hops under the graph's current weights — expressed over the given
// (typically augmented) DAGs so it can be evaluated and compared in the
// same normalization. Augmentation-only edges carry ratio zero.
func ECMPOnDAGs(g *graph.Graph, dags []*dagx.DAG) *pdrouting.Routing {
	r := pdrouting.NewZero(g, dags)
	for t := range dags {
		// Reuse the DAG's cached construction-time distance field when
		// present; only operator-supplied DAGs (FromEdges) pay a Dijkstra.
		tree := dags[t].Tree()
		if tree == nil {
			tree = spf.ToDestination(g, graph.NodeID(t))
		}
		spMember := tree.ShortestPathEdges(g)
		for u := 0; u < g.NumNodes(); u++ {
			if u == t {
				continue
			}
			var hops []graph.EdgeID
			for _, id := range dags[t].OutEdges(g, graph.NodeID(u)) {
				if spMember[id] {
					hops = append(hops, id)
				}
			}
			if len(hops) == 0 {
				// The augmented DAG contains the SP DAG, so this only
				// happens for nodes that cannot reach t at all; fall back
				// to uniform over whatever DAG edges exist.
				hops = dags[t].OutEdges(g, graph.NodeID(u))
				if len(hops) == 0 {
					continue
				}
			}
			share := 1 / float64(len(hops))
			for _, id := range hops {
				r.Phi[t][id] = share
			}
		}
	}
	return r
}

// BaseRouting computes the paper's "Base" baseline: the demands-aware
// optimal routing for a single base matrix (no uncertainty), realized as
// splitting ratios within the given DAGs. Figures 6–8 show how quickly it
// degrades as actual demands drift from the base.
func BaseRouting(g *graph.Graph, dags []*dagx.DAG, base *demand.Matrix, exactNodeLimit int, eps float64) (*pdrouting.Routing, error) {
	if exactNodeLimit <= 0 {
		exactNodeLimit = DefaultExactNodeLimit
	}
	if eps <= 0 {
		eps = 0.1
	}
	var flows [][]float64
	var err error
	if g.NumNodes() <= exactNodeLimit {
		_, flows, err = mcf.MinMLUExact(g, dags, base)
	} else {
		_, flows, err = mcf.MinMLUApprox(g, dags, base, eps)
	}
	if err != nil {
		return nil, err
	}
	r := pdrouting.NewZero(g, dags)
	uniform := pdrouting.Uniform(g, dags)
	for t := 0; t < g.NumNodes(); t++ {
		if flows[t] == nil {
			r.Phi[t] = uniform.Phi[t]
			continue
		}
		phi, err := pdrouting.FromFlows(g, dags[t], flows[t])
		if err != nil {
			return nil, err
		}
		r.Phi[t] = phi
	}
	return r, nil
}
