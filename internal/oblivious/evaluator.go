// Package oblivious implements the oblivious-performance machinery of the
// paper: evaluating PERF(φ, D) — the worst-case ratio between a routing's
// maximum link utilization and the demands-aware optimum within the same
// DAGs (§III, §VI) — and COYOTE's adversarial optimization loop that
// couples the worst-case-demand finder with the GP-style splitting-ratio
// optimizer (§V-C, Appendix C).
//
// Two adversaries are provided. The exact one solves, per link, the "slave
// LP" of Appendix C (maximize the link's utilization over all demand
// matrices in the uncertainty set that are routable within the DAGs'
// capacities). The fast one exploits that for a fixed routing the load on a
// link is linear in the demand matrix, so a box-constrained maximum is
// attained at a corner readable from the coefficient signs; corners are
// then normalized by OPTDAG via the mcf solvers. Single-pair demand
// matrices (the adversaries behind Theorem 4) are additionally screened in
// closed form through DAG-restricted max-flow. Normalization is bound,
// then solve: every exact OPTDAG solve also yields an LP-dual lower bound
// on OPTDAG of any matrix (mcf.Lengths), and a candidate whose certified
// ratio bound cannot reach the top-k is never solved (DESIGN.md §2.5).
//
// The evaluator is concurrent end-to-end (DESIGN.md §4): coefficient
// extraction, the single-pair screen, corner-adversary sampling, candidate
// normalization batches, and per-destination DAG flow propagation all fan out
// across a worker pool sized by EvalConfig.Workers, with flow buffers
// recycled through sync.Pool. Every parallel stage writes index-addressed
// slots and reduces serially in index order, and corner sampling derives
// each corner from (Seed, call sequence, sample index) rather than from a
// shared RNG stream, so results for a fixed Seed are bit-identical for any
// worker count.
package oblivious

import (
	"context"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/maxflow"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/par"
	"github.com/coyote-te/coyote/internal/pdrouting"
)

// DefaultExactNodeLimit is the exact/FPTAS crossover: OPTDAG uses the
// sparse revised-simplex LP up to this many nodes and the Garg–Könemann
// FPTAS beyond it. The value was set by benchmark (EXPERIMENTS.md,
// "Exact vs FPTAS crossover"): with the sparse core the exact LP beats the
// eps=0.1 FPTAS on every corpus topology (≤ 33 nodes) and on ~40-node
// generated WANs, and loses from ~48 nodes up. The dense-tableau core this
// replaced capped the limit at 18.
const DefaultExactNodeLimit = 40

// EvalConfig tunes the evaluator.
type EvalConfig struct {
	Eps            float64 // FPTAS accuracy for OPTDAG on large instances (default 0.1)
	Samples        int     // random box corners per evaluation (default 8)
	Seed           int64   // seed for corner sampling
	ExactNodeLimit int     // use the exact LP for OPTDAG when NumNodes ≤ this (default DefaultExactNodeLimit)
	Workers        int     // worker-pool size (≤ 0 = GOMAXPROCS); never changes results
}

func (c EvalConfig) withDefaults() EvalConfig {
	if c.Eps <= 0 {
		c.Eps = 0.1
	}
	if c.Samples <= 0 {
		c.Samples = 8
	}
	if c.ExactNodeLimit <= 0 {
		c.ExactNodeLimit = DefaultExactNodeLimit
	}
	return c
}

// Evaluator computes worst-case performance ratios of routings over a fixed
// uncertainty set and fixed per-destination DAGs. It caches OPTDAG values
// (which depend only on the demand matrix and DAGs, not the routing) and
// per-pair DAG max-flows, so repeated evaluations inside the adversarial
// loop are cheap. Evaluator is safe for concurrent use; a serialized
// sequence of calls is reproducible for a fixed Seed regardless of
// EvalConfig.Workers.
type Evaluator struct {
	G    *graph.Graph
	DAGs []*dagx.DAG
	Box  *demand.Box
	cfg  EvalConfig

	cache *evalCache // OPTDAG and max-flow caches, shareable across boxes

	seq     atomic.Uint64 // PerfTop call sequence; varies corner samples across calls
	edgeBuf *par.Pool     // pooled per-edge flow buffers (len NumEdges)
	nodeBuf *par.Pool     // pooled per-node inflow buffers (len NumNodes)

	// onPrune, when set (tests only), sees every candidate PerfTop prunes
	// with its MxLU and the top-k threshold τ that pruned it.
	onPrune func(D *demand.Matrix, mxlu, tau float64)
}

const (
	// pruneBatch is how many OPTDAG solves PerfTop runs between two
	// pruning passes. Smaller batches refresh τ and the bounds more often
	// and so prune more (Geant, default effort: 38 LP solves per Compute
	// at 2, 41 at 4, 49 at 8, 61 at 16), at the price of a narrower
	// parallel fan-out per batch; 4 still fills a small worker pool. It is
	// a constant, not derived from Workers, so the pruned set is identical
	// at any width.
	pruneBatch = 4
	// lengthStoreCap bounds the OPTDAG length certificates evalCache
	// keeps for later calls, each one float per edge. In a prototype, an
	// unbounded store (of n² distance tables) grew session heaps by
	// 72–106%; the most recent few carry the useful bounds.
	lengthStoreCap = 8
	// pruneSlack is the relative margin by which a candidate's certified
	// ratio bound must miss τ before it is pruned, covering the LP's own
	// optimality tolerance on the values that set τ.
	pruneSlack = 1e-9
)

var mPruned = obs.Default.NewCounter("coyote_oblivious_candidates_pruned_total",
	"Adversary candidates whose OPTDAG solve was skipped because a dual lower bound proved they cannot reach the top-k.")

// evalCache holds the values that depend only on (graph, DAGs) — OPTDAG
// normalizations (or the lower bounds that pruned them), per-pair DAG
// max-flows, the latest exact-LP optimal basis, and the most recent OPTDAG
// length certificates — so evaluators over the same topology but different
// uncertainty boxes (the online controller's demand updates) can share
// them. The basis rides the same carry-through as the gpopt warm state:
// delta.Session's UpdateBounds and Recover derive their evaluator via
// WithBox, which keeps this cache, so exact normalizations after a demand
// drift warm-start from the vertex of the previous epoch, and their pruning
// starts from the previous epoch's bounds.
type evalCache struct {
	mu sync.Mutex
	// opt memoizes OPTDAG by matrix hash: the value once solved (≥ 0, +Inf
	// when unroutable), or −LB for a matrix pruned unsolved, where LB > 0
	// is the lower bound that pruned it.
	opt     map[uint64]float64
	mf      map[[2]graph.NodeID]float64
	basis   *lp.Basis
	lengths []mcf.Lengths // at most lengthStoreCap, oldest first
}

// storedLengths snapshots the length-certificate store.
func (c *evalCache) storedLengths() []mcf.Lengths {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lengths
}

// addLengths appends certificates in the given order (nil entries are
// skipped) and keeps the lengthStoreCap most recent.
func (c *evalCache) addLengths(ws ...mcf.Lengths) {
	c.mu.Lock()
	defer c.mu.Unlock()
	all := append([]mcf.Lengths(nil), c.lengths...)
	for _, w := range ws {
		if w != nil {
			all = append(all, w)
		}
	}
	if len(all) > lengthStoreCap {
		all = all[len(all)-lengthStoreCap:]
	}
	c.lengths = all
}

// warmBasis snapshots the shared warm-start basis.
func (c *evalCache) warmBasis() *lp.Basis {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.basis
}

// NewEvaluator builds an evaluator for the given DAGs and uncertainty box.
func NewEvaluator(g *graph.Graph, dags []*dagx.DAG, box *demand.Box, cfg EvalConfig) *Evaluator {
	cfg = cfg.withDefaults()
	return &Evaluator{
		G:    g,
		DAGs: dags,
		Box:  box,
		cfg:  cfg,
		cache: &evalCache{
			opt: make(map[uint64]float64),
			mf:  make(map[[2]graph.NodeID]float64),
		},
		edgeBuf: par.NewPool(g.NumEdges()),
		nodeBuf: par.NewPool(g.NumNodes()),
	}
}

// WithBox derives an evaluator for a different uncertainty box over the
// same graph and DAGs. The OPTDAG, max-flow and length-certificate caches —
// which are box-independent — and the flow-buffer pools are shared with
// the receiver, so a session that drifts its demand bounds keeps every
// normalization and bound it already paid for. The derived evaluator
// starts a fresh corner-sampling sequence.
func (ev *Evaluator) WithBox(box *demand.Box) *Evaluator {
	return &Evaluator{
		G:       ev.G,
		DAGs:    ev.DAGs,
		Box:     box,
		cfg:     ev.cfg,
		cache:   ev.cache,
		edgeBuf: ev.edgeBuf,
		nodeBuf: ev.nodeBuf,
	}
}

// OptDAG returns the demands-aware optimal utilization of D within the
// evaluator's DAGs: OptDAGs of a one-matrix batch.
func (ev *Evaluator) OptDAG(D *demand.Matrix) float64 {
	return ev.OptDAGs([]*demand.Matrix{D})[0]
}

// OptDAGs returns OPTDAG of each matrix (cached; exact LP up to
// ExactNodeLimit nodes, FPTAS otherwise). The memo misses are solved
// concurrently, each exact solve warm-starting from one snapshot of the
// shared basis, and what they learned is published in index order
// (publishFresh), so the values and the published state are independent
// of worker count. When the cache holds no basis yet, the first miss is
// solved alone and seeds the snapshot: a cold evaluator's first batch
// chains exactly like one-at-a-time calls. A matrix repeated in Ds is
// solved once per occurrence. Use it from serialized contexts (the
// adversarial loop's scenario seeding, sessions); PerfTop's normalization
// batches run through boundThenSolve instead.
func (ev *Evaluator) OptDAGs(Ds []*demand.Matrix) []float64 {
	vals := make([]float64, len(Ds))
	fresh := make([]*mcf.Solution, len(Ds))
	var miss []int
	ev.cache.mu.Lock()
	for i, D := range Ds {
		if v, ok := ev.cache.opt[hashMatrix(D)]; ok && v >= 0 {
			vals[i] = v
		} else {
			miss = append(miss, i)
		}
	}
	ev.cache.mu.Unlock()
	warm := ev.cache.warmBasis()
	if warm == nil && ev.exact() && len(miss) > 0 {
		i := miss[0]
		miss = miss[1:]
		vals[i], fresh[i] = ev.optDAGWarm(Ds[i], nil)
		ev.publishFresh(fresh, []int{i})
		warm = ev.cache.warmBasis()
	}
	par.For(ev.cfg.Workers, len(miss), func(j int) {
		vals[miss[j]], fresh[miss[j]] = ev.optDAGWarm(Ds[miss[j]], warm)
	})
	ev.publishFresh(fresh, miss)
	return vals
}

// exact reports whether OPTDAG uses the exact LP (and so yields bases and
// length certificates) rather than the FPTAS.
func (ev *Evaluator) exact() bool { return ev.G.NumNodes() <= ev.cfg.ExactNodeLimit }

// optDAGWarm is OptDAG against an explicit warm basis. It returns the
// (possibly cached) value and, when a fresh exact solve succeeded, its
// solution (basis and length certificate); nil otherwise.
func (ev *Evaluator) optDAGWarm(D *demand.Matrix, warm *lp.Basis) (float64, *mcf.Solution) {
	h := hashMatrix(D)
	c := ev.cache
	c.mu.Lock()
	if v, ok := c.opt[h]; ok && v >= 0 {
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()
	var v float64
	var sol *mcf.Solution
	var err error
	if ev.exact() {
		if sol, err = mcf.MinMLUExactBasis(ev.G, ev.DAGs, D, warm); err == nil {
			v = sol.MLU
		}
	} else {
		v, _, err = mcf.MinMLUApprox(ev.G, ev.DAGs, D, ev.cfg.Eps)
	}
	if err != nil {
		v = math.Inf(1)
		sol = nil
	}
	c.mu.Lock()
	c.opt[h] = v
	c.mu.Unlock()
	return v, sol
}

// pairMaxFlow returns the maximum s→t flow within DAG_t (cached). The
// optimal utilization of the single-pair demand (s,t,d) within the DAGs is
// exactly d/pairMaxFlow(s,t).
func (ev *Evaluator) pairMaxFlow(s, t graph.NodeID) float64 {
	key := [2]graph.NodeID{s, t}
	c := ev.cache
	c.mu.Lock()
	if v, ok := c.mf[key]; ok {
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	net := maxflow.NewNetwork(ev.G.NumNodes())
	for _, e := range ev.G.Edges() {
		if ev.DAGs[t].Member[e.ID] {
			net.AddArc(int(e.From), int(e.To), e.Capacity)
		}
	}
	v := net.MaxFlow(int(s), int(t))
	c.mu.Lock()
	c.mf[key] = v
	c.mu.Unlock()
	return v
}

// MaxUtilization is MxLU(r, D) computed with the per-destination DAG flow
// propagation fanned across the evaluator's worker pool and its pooled
// flow buffers; bit-identical to r.MaxUtilization for any worker count.
func (ev *Evaluator) MaxUtilization(r *pdrouting.Routing, D *demand.Matrix) float64 {
	return r.ParallelMaxUtilization(D, ev.cfg.Workers, ev.edgeBuf, ev.nodeBuf)
}

// Result reports a worst-case evaluation.
type Result struct {
	Ratio   float64        // PERF estimate: max over adversarial DMs of MxLU/OPTDAG
	WorstDM *demand.Matrix // a demand matrix attaining Ratio
	MxLU    float64        // the routing's utilization on WorstDM
	Norm    float64        // OPTDAG(WorstDM)
}

// Perf estimates PERF(r, Box): the worst normalized utilization of the
// routing across the uncertainty set. The adversary combines per-link box
// corners, random corners, the box extremes, and all single-pair demand
// matrices (evaluated in closed form).
func (ev *Evaluator) Perf(r *pdrouting.Routing) Result {
	top := ev.PerfTop(r, 1)
	return top[0]
}

// PerfTop runs the same adversary as Perf but returns the k worst distinct
// demand scenarios found (best first). The adversarial optimization loop
// feeds several of them into the finite scenario set at once, which
// converges in far fewer outer rounds than one-at-a-time accumulation.
func (ev *Evaluator) PerfTop(r *pdrouting.Routing, k int) []Result {
	return ev.PerfTopCtx(context.Background(), r, k)
}

// PerfTopCtx is PerfTop with tracing: when ctx carries an obs.Tracer the
// adversary records one oblivious.adversary span covering the whole
// candidate fan-out (corner generation, utilization propagation, batched
// OPTDAG normalization). The candidates themselves are evaluated in
// parallel, so the span is deliberately one per call, not one per
// candidate; its attributes count the corner candidates, the singles, and
// how many candidates were solved and pruned. Nothing observed changes the
// verdict.
//
// Candidates whose LP-dual ratio bound proves they cannot enter the top-k
// are pruned unsolved (boundThenSolve): the result is the top-k the full
// adversary would return, at a fraction of its OPTDAG solves.
func (ev *Evaluator) PerfTopCtx(ctx context.Context, r *pdrouting.Routing, k int) []Result {
	_, span := obs.StartSpan(ctx, "oblivious.adversary")
	defer span.End()
	n := ev.G.NumNodes()
	nE := ev.G.NumEdges()
	workers := ev.cfg.Workers
	seq := ev.seq.Add(1)

	// Load coefficients coeff[t][s][e], one independent propagation per
	// destination.
	coeff := make([][][]float64, n)
	par.For(workers, n, func(t int) {
		coeff[t] = r.LoadCoeffs(graph.NodeID(t))
	})

	// Single-pair adversary, exact and closed-form: for demand d on (s,t),
	// MxLU = d·max_e coeff[t][s][e]/c_e and OPTDAG = d/maxflow(s,t), so the
	// ratio is maxflow(s,t)·max_e coeff/c — independent of d. Single-pair
	// matrices belong to the box only when its lower bounds are all zero
	// (the oblivious sets); skip them otherwise.
	var singles []Result
	if ev.Box.Min.Total() == 0 {
		perSource := make([][]Result, n)
		par.For(workers, n, func(s int) {
			for t := 0; t < n; t++ {
				if s == t || ev.Box.Max.At(graph.NodeID(s), graph.NodeID(t)) <= 0 {
					continue
				}
				peak := 0.0
				for e := 0; e < nE; e++ {
					u := coeff[t][s][e] / ev.G.Edge(graph.EdgeID(e)).Capacity
					if u > peak {
						peak = u
					}
				}
				mf := ev.pairMaxFlow(graph.NodeID(s), graph.NodeID(t))
				if mf <= 0 {
					continue
				}
				d := ev.Box.Max.At(graph.NodeID(s), graph.NodeID(t))
				perSource[s] = append(perSource[s], Result{
					Ratio:   peak * mf,
					WorstDM: demand.SinglePair(n, graph.NodeID(s), graph.NodeID(t), d),
					MxLU:    peak * d,
					Norm:    d / mf,
				})
			}
		})
		for _, rs := range perSource {
			singles = append(singles, rs...)
		}
		// Keep the strongest few; they are candidates for the top-k set.
		sort.SliceStable(singles, func(i, j int) bool { return singles[i].Ratio > singles[j].Ratio })
		if len(singles) > 8 {
			singles = singles[:8]
		}
	}

	// Corner candidates: the box maximum, the geometric midpoint (≈ the
	// base matrix of a margin box), one corner per link maximizing that
	// link's load, and the random corners. Corners are generated into
	// index-addressed slots in parallel, then deduplicated serially in a
	// fixed order.
	corners := make([]*demand.Matrix, 2+nE+ev.cfg.Samples)
	corners[0] = ev.Box.Max.Clone()
	mid := demand.NewMatrix(n)
	for i := range mid.D {
		mid.D[i] = math.Sqrt(ev.Box.Min.D[i] * ev.Box.Max.D[i])
	}
	corners[1] = mid
	par.For(workers, nE, func(e int) {
		corners[2+e] = ev.Box.Corner(func(s, t graph.NodeID) bool {
			return coeff[t][s][e] > 1e-12
		})
	})
	par.For(workers, ev.cfg.Samples, func(i int) {
		corners[2+nE+i] = ev.randomCorner(seq, i)
	})
	candidates := make([]*demand.Matrix, 0, len(corners))
	seen := make(map[uint64]bool)
	for _, D := range corners {
		if D.Total() <= 0 {
			continue
		}
		h := hashMatrix(D)
		if !seen[h] {
			seen[h] = true
			candidates = append(candidates, D)
		}
	}

	if k < 1 {
		k = 1
	}
	results, solved, pruned := ev.boundThenSolve(r, candidates, singles, k)
	mPruned.Add(uint64(pruned))
	span.Attr("k", k).Attr("candidates", len(candidates)).Attr("singles", len(singles)).
		Attr("solved", solved).Attr("pruned", pruned)
	all := append(singles, results...)
	if len(all) == 0 {
		return []Result{{Ratio: math.Inf(-1)}}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Ratio > all[j].Ratio })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// boundThenSolve normalizes the corner candidates by OPTDAG and returns,
// in candidate order, those with a finite ratio — except candidates it
// proved cannot enter the top-k, whose LP it skips. MxLU is cheap, so it is
// computed for every candidate first; the singles and memo hits contribute
// exact ratios outright. τ is the k-th best exact ratio known so far. The
// remaining candidates are solved in batches of pruneBatch, highest
// certified ratio bound UB = MxLU/LB first (ties by index), where LB is the
// best OPTDAG lower bound from the stored and freshly solved length
// certificates (mcf.Lengths) and, for a matrix an earlier call pruned, the
// bound that pruned it. Before each batch, every candidate with
// UB·(1+pruneSlack) < τ is dropped; its exact ratio is at most UB, so it
// could not displace any of the k results that set τ. Pruning reads only
// serial state and every solve of the call warm-starts from one basis
// snapshot, so the solved set and every value are independent of worker
// count.
func (ev *Evaluator) boundThenSolve(r *pdrouting.Routing, candidates []*demand.Matrix, singles []Result, k int) (results []Result, solved, pruned int) {
	mxlu := make([]float64, len(candidates))
	// The candidate fan-out already saturates the pool; a full-width inner
	// fan-out here would square the goroutine count for no throughput. The
	// serial propagation still reuses pooled buffers and is bit-identical
	// at any width.
	par.For(ev.cfg.Workers, len(candidates), func(i int) {
		mxlu[i] = r.ParallelMaxUtilization(candidates[i], 1, ev.edgeBuf, ev.nodeBuf)
	})
	best := make([]float64, 0, k+1) // the k best exact ratios, descending
	know := func(ratio float64) {
		i := sort.Search(len(best), func(j int) bool { return best[j] < ratio })
		best = append(best[:i], append([]float64{ratio}, best[i:]...)...)
		if len(best) > k {
			best = best[:k]
		}
	}
	for _, s := range singles {
		know(s.Ratio)
	}
	// A matrix pruned by an earlier call starts from the bound that pruned
	// it: the length store has moved on since, and the bound has not.
	norm := make([]float64, len(candidates))
	lb := make([]float64, len(candidates))
	hash := make([]uint64, len(candidates))
	var pending []int
	ev.cache.mu.Lock()
	for i, D := range candidates {
		hash[i] = hashMatrix(D)
		v, ok := ev.cache.opt[hash[i]]
		switch {
		case ok && v >= 0:
			norm[i] = v
			if v > 0 && !math.IsInf(v, 1) {
				know(mxlu[i] / v)
			}
		case ok:
			lb[i] = -v
			fallthrough
		default:
			pending = append(pending, i)
		}
	}
	ev.cache.mu.Unlock()
	bound := func(w mcf.Lengths) {
		dist := w.Dists(ev.G, ev.DAGs)
		for _, i := range pending {
			if v := mcf.LowerBound(candidates[i], dist); v > lb[i] {
				lb[i] = v
			}
		}
	}
	batch := len(pending) // FPTAS: no certificates, one full fan-out
	if ev.exact() {
		batch = pruneBatch
		for _, w := range ev.cache.storedLengths() {
			bound(w)
		}
	}
	skipped := make([]bool, len(candidates))
	ub := make([]float64, len(candidates))
	warmSnapshot := ev.cache.warmBasis()
	fresh := make([]*mcf.Solution, len(candidates))
	var order []int // solve order
	for len(pending) > 0 {
		tau := math.Inf(-1)
		if len(best) == k {
			tau = best[k-1]
		}
		keep := pending[:0]
		for _, i := range pending {
			ub[i] = math.Inf(1)
			if lb[i] > 0 {
				ub[i] = mxlu[i] / lb[i]
			}
			if ub[i]*(1+pruneSlack) >= tau {
				keep = append(keep, i)
				continue
			}
			skipped[i] = true
			pruned++
			if ev.onPrune != nil {
				ev.onPrune(candidates[i], mxlu[i], tau)
			}
		}
		pending = keep
		sort.Slice(pending, func(a, b int) bool {
			ia, ib := pending[a], pending[b]
			if ub[ia] != ub[ib] {
				return ub[ia] > ub[ib]
			}
			return ia < ib
		})
		cur := append([]int(nil), pending[:min(batch, len(pending))]...)
		pending = pending[len(cur):]
		par.For(ev.cfg.Workers, len(cur), func(j int) {
			norm[cur[j]], fresh[cur[j]] = ev.optDAGWarm(candidates[cur[j]], warmSnapshot)
		})
		for _, i := range cur {
			order = append(order, i)
			if v := norm[i]; v > 0 && !math.IsInf(v, 1) {
				know(mxlu[i] / v)
			}
			if sol := fresh[i]; sol != nil && sol.Lengths != nil {
				bound(sol.Lengths)
			}
		}
	}
	ev.publishFresh(fresh, order)
	ev.cache.mu.Lock()
	for i, skip := range skipped {
		// Never overwrite a value another evaluator on this cache solved
		// meanwhile, nor a stronger bound.
		if v, ok := ev.cache.opt[hash[i]]; skip && (!ok || v < 0 && -v < lb[i]) {
			ev.cache.opt[hash[i]] = -lb[i]
		}
	}
	ev.cache.mu.Unlock()
	for i, D := range candidates {
		if v := norm[i]; !skipped[i] && v > 0 && !math.IsInf(v, 1) {
			results = append(results, Result{Ratio: mxlu[i] / v, WorstDM: D, MxLU: mxlu[i], Norm: v})
		}
	}
	return results, len(order), pruned
}

// publishFresh hands the evaluator cache what a batch of fresh solves
// learned: their length certificates, in solve order, and one warm basis
// — the highest-indexed fresh solve whose dual simplex has not stalled
// (Basis.DualStall == 0), or none. A stalled mark is sticky along the
// chain, so publishing it would shut the dual restart off for every later
// normalization that starts from the shared basis; keeping the older
// unstalled basis lets the next RHS drift repair it by dual simplex.
func (ev *Evaluator) publishFresh(fresh []*mcf.Solution, order []int) {
	var ws []mcf.Lengths
	for _, i := range order {
		if fresh[i] != nil {
			ws = append(ws, fresh[i].Lengths)
		}
	}
	ev.cache.addLengths(ws...)
	for i := len(fresh) - 1; i >= 0; i-- {
		if fresh[i] != nil && fresh[i].Basis != nil && fresh[i].Basis.DualStall == 0 {
			ev.cache.mu.Lock()
			ev.cache.basis = fresh[i].Basis
			ev.cache.mu.Unlock()
			return
		}
	}
}

// randomCorner materializes the sample-th random box corner of the seq-th
// PerfTop call. Corner bits come from a counter-mode splitmix64 stream
// keyed on (Seed, seq, sample), so every (call, sample) pair sees an
// independent corner and the choice is independent of which worker runs it.
func (ev *Evaluator) randomCorner(seq uint64, sample int) *demand.Matrix {
	state := splitmix64(uint64(ev.cfg.Seed)) ^ splitmix64(seq<<20^uint64(sample))
	var word uint64
	bits := 0
	ctr := uint64(0)
	return ev.Box.Corner(func(s, t graph.NodeID) bool {
		if bits == 0 {
			ctr++
			word = splitmix64(state + ctr)
			bits = 64
		}
		b := word&1 == 1
		word >>= 1
		bits--
		return b
	})
}

// splitmix64 is the SplitMix64 finalizer — a fast, well-mixed hash used as
// a counter-mode PRNG for deterministic corner sampling.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashMatrix fingerprints a demand matrix for caching.
func hashMatrix(D *demand.Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range D.D {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
