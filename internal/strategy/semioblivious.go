package strategy

import (
	"fmt"
	"sync"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/pdrouting"
	"github.com/coyote-te/coyote/internal/spf"
)

// supportTol prunes splitting ratios below this from the semi-oblivious
// path set: edges COYOTE barely uses are dropped, edges it leans on stay.
const supportTol = 1e-3

// semiObliviousStrategy is the Kulfi-style middle ground: path sets come
// from the COYOTE oblivious solution (robust to anything in the box), but
// the *rates* on those paths are re-solved per observed matrix through the
// warm MinMLUModel SetDemand/dual-restart path (~0.02× cold pivots, zero
// phase-1 iterations on RHS-edit re-solves). Adapt is never worse than the
// static oblivious routing on the same matrix: the adapted solution is
// kept only when it evaluates at least as well.
type semiObliviousStrategy struct{ cfg Config }

func (s *semiObliviousStrategy) Name() string { return "semi-oblivious" }

func (s *semiObliviousStrategy) Build(g *graph.Graph, box *demand.Box) (Plan, error) {
	dags := dagx.BuildAll(g, dagx.Augmented)
	static, rep := oblivious.OptimizeSplitting(g, dags, box, s.cfg.options())

	// The support DAGs: edges the oblivious routing actually uses, plus the
	// full shortest-path DAG so every pair stays routable after pruning.
	// Both parts lie within the augmented DAG, so acyclicity is inherited.
	support := make([]*dagx.DAG, g.NumNodes())
	for t := range support {
		member := spf.ToDestination(g, graph.NodeID(t)).ShortestPathEdges(g)
		for e, phi := range static.Phi[t] {
			if phi >= supportTol && dags[t].Member[e] {
				member[e] = true
			}
		}
		d, err := dagx.FromEdges(g, graph.NodeID(t), member)
		if err != nil {
			return nil, fmt.Errorf("strategy: semi-oblivious support DAG for %d: %w", t, err)
		}
		support[t] = d
	}

	// The rate LP is shaped on the box maximum so every destination that can
	// ever see demand has its conservation rows; Adapt then only edits RHS
	// values, which is exactly the bound-only change the dual-simplex warm
	// restart repairs without any phase-1 work.
	model := mcf.NewMinMLUModel(g, support, box.Max)
	sol, err := model.Solve(nil)
	if err != nil {
		return nil, fmt.Errorf("strategy: semi-oblivious rate LP infeasible at box max: %w", err)
	}

	p := &semiObliviousPlan{
		g:       g,
		support: support,
		static:  static,
		model:   model,
		basis:   sol.Basis,
		cost: Cost{
			DAGEdges:  0,
			Adaptive:  true,
			Scenarios: rep.ScenarioCount,
		},
	}
	for _, d := range support {
		p.cost.DAGEdges += d.NumEdges()
	}
	return p, nil
}

type semiObliviousPlan struct {
	g       *graph.Graph
	support []*dagx.DAG
	static  *pdrouting.Routing
	cost    Cost

	mu    sync.Mutex
	model *mcf.MinMLUModel
	basis *lp.Basis
}

func (p *semiObliviousPlan) Route(*demand.Matrix) (*pdrouting.Routing, error) {
	return p.static, nil
}

func (p *semiObliviousPlan) Cost() Cost { return p.cost }

// Adapt re-solves the rates on the fixed oblivious path sets for dm and
// returns whichever of (adapted, static) has the lower max utilization on
// dm — so adaptation can only help, never hurt.
func (p *semiObliviousPlan) Adapt(dm *demand.Matrix) (*pdrouting.Routing, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.g.NumNodes()
	if dm.N != n {
		return nil, fmt.Errorf("strategy: semi-oblivious Adapt got a %d-node matrix over a %d-node graph", dm.N, n)
	}
	for t := 0; t < n; t++ {
		for s := 0; s < n; s++ {
			if s == t {
				continue
			}
			d := dm.At(graph.NodeID(s), graph.NodeID(t))
			if err := p.model.SetDemand(graph.NodeID(s), graph.NodeID(t), d); err != nil {
				// Destination inactive at build time: only an error if the
				// matrix actually sends traffic there (outside the box).
				if d > 0 {
					return nil, fmt.Errorf("strategy: semi-oblivious Adapt: %w", err)
				}
			}
		}
	}
	sol, err := p.model.Solve(&lp.SolveOptions{Basis: p.basis})
	if err != nil {
		return nil, fmt.Errorf("strategy: semi-oblivious rate re-solve: %w", err)
	}
	p.basis = sol.Basis
	flows := sol.Flows

	adapted := pdrouting.NewZero(p.g, p.support)
	uniform := pdrouting.Uniform(p.g, p.support)
	for t := 0; t < n; t++ {
		if flows[t] == nil {
			adapted.Phi[t] = uniform.Phi[t]
			continue
		}
		phi, err := pdrouting.FromFlows(p.g, p.support[t], flows[t])
		if err != nil {
			return nil, fmt.Errorf("strategy: semi-oblivious flow decomposition: %w", err)
		}
		adapted.Phi[t] = phi
	}
	if adapted.MaxUtilization(dm) <= p.static.MaxUtilization(dm) {
		return adapted, nil
	}
	return p.static, nil
}
