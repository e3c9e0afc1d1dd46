// Package mcf computes demands-aware optimal routings: the minimum maximum
// link utilization (min-MLU) multicommodity flow that the paper denotes
// OPTU(D) (§III), optionally restricted to a given set of per-destination
// DAGs (the "demands-aware optimum within the same DAGs" that normalizes
// every figure in §VI).
//
// Destination-based min-MLU equals the destination-aggregated
// multicommodity optimum: flows toward a common destination can be merged,
// and any cycles in the aggregate can be cancelled without increasing link
// loads, leaving an in-DAG flow realizable by splitting ratios.
//
// Two solvers are provided: an exact LP formulation (package lp) and a
// Garg–Könemann/Fleischer-style fully polynomial approximation scheme. The
// FPTAS replaces the paper's external LP solver on the hot evaluation path;
// tests cross-validate the two on small instances.
package mcf

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
)

// ErrUnroutable indicates some positive demand has no path to its
// destination within the allowed edges.
var ErrUnroutable = errors.New("mcf: demand has no path within the allowed edge set")

// allowedEdges returns the usable-edge membership vector for destination t:
// the DAG's member set if dags is non-nil, every edge otherwise.
func allowedEdges(g *graph.Graph, dags []*dagx.DAG, t graph.NodeID) []bool {
	if dags != nil {
		return dags[t].Member
	}
	all := make([]bool, g.NumEdges())
	for i := range all {
		all[i] = true
	}
	return all
}

// MinMLUExact solves min-MLU exactly with the sparse revised-simplex
// solver. It returns the optimal utilization and the per-destination edge
// flows (flows[t][e]; nil rows for destinations without demand). When dags
// is non-nil, flows are restricted to each destination's DAG.
func MinMLUExact(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix) (float64, [][]float64, error) {
	sol, err := MinMLUExactBasis(g, dags, D, nil)
	if err != nil {
		if errors.Is(err, ErrUnroutable) {
			return math.Inf(1), nil, err
		}
		return 0, nil, err
	}
	return sol.MLU, sol.Flows, nil
}

// MinMLUExactBasis is MinMLUExact with an optional warm-start basis from a
// previous solve of the same formulation shape — same graph, DAGs, and set
// of active destinations (demand columns with traffic). The returned
// Solution carries the optimal basis of this solve; carrying it across the
// online controller's repeated normalizations (demand matrices drifting
// inside a box) typically skips phase 1 entirely, and a bound/RHS-only
// drift is repaired by the dual simplex. A basis that no
// longer fits is ignored. The optimum itself never depends on the warm
// basis; only the pivot path does.
func MinMLUExactBasis(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix, warm *lp.Basis) (*Solution, error) {
	if D.Total() == 0 {
		return &Solution{Flows: make([][]float64, g.NumNodes())}, nil
	}
	mm := NewMinMLUModel(g, dags, D)
	return mm.Solve(&lp.SolveOptions{Basis: warm})
}

// Solution is an optimal min-MLU solve.
type Solution struct {
	MLU   float64     // the optimal maximum link utilization
	Flows [][]float64 // flows[t][e]; nil rows for inactive destinations
	Basis *lp.Basis   // the optimal basis, for warm-starting a related solve
	// Lengths is the solve's dual certificate (nil when the solver
	// reported no duals): see Lengths.
	Lengths Lengths
}

// MinMLUModel is the exact min-MLU LP kept mutable between solves: the
// online controller edits demand RHS values in place (SetDemand) and
// re-solves from the carried basis, which routes through the dual simplex
// when the edit left the basis primal infeasible. The row/variable maps
// are exported so tests and tools can address the formulation directly.
type MinMLUModel struct {
	Model *lp.Model
	// Alpha is the MLU variable (the objective).
	Alpha int
	// VarOf[t][e] is the LP variable carrying flow toward destination t on
	// edge e, or −1 (destination inactive or edge outside its DAG).
	VarOf [][]int
	// DemandRow[t][v] is the conservation row "out − in = d_vt" at node
	// v ≠ t for active destination t, or −1.
	DemandRow [][]int
	// CapRow[e] is edge e's capacity row "Σ_t flow − α·c_e ≤ 0", or −1
	// when no destination may use the edge.
	CapRow []int

	g      *graph.Graph
	active []bool
}

// NewMinMLUModel builds the min-MLU LP for the demands D. The active
// destination set (columns of D with traffic) fixes the formulation shape;
// SetDemand may later move demand only toward destinations active here.
func NewMinMLUModel(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix) *MinMLUModel {
	n := g.NumNodes()
	prob := lp.NewModel(lp.Minimize)
	mm := &MinMLUModel{
		Model:     prob,
		Alpha:     prob.AddVar(0, lp.Inf, 1),
		VarOf:     make([][]int, n),
		DemandRow: make([][]int, n),
		CapRow:    make([]int, g.NumEdges()),
		g:         g,
		active:    make([]bool, n),
	}
	for t := 0; t < n; t++ {
		col := D.ToDestination(graph.NodeID(t))
		for _, d := range col {
			if d > 0 {
				mm.active[t] = true
				break
			}
		}
		if !mm.active[t] {
			continue
		}
		allowed := allowedEdges(g, dags, graph.NodeID(t))
		mm.VarOf[t] = make([]int, g.NumEdges())
		for e := range mm.VarOf[t] {
			if allowed[e] {
				mm.VarOf[t][e] = prob.AddVars(1)
			} else {
				mm.VarOf[t][e] = -1
			}
		}
		// Flow conservation at every v != t: out - in = d_vt.
		mm.DemandRow[t] = make([]int, n)
		for v := range mm.DemandRow[t] {
			mm.DemandRow[t][v] = -1
		}
		for v := 0; v < n; v++ {
			if v == t {
				continue
			}
			var terms []lp.Term
			for _, id := range g.Out(graph.NodeID(v)) {
				if mm.VarOf[t][id] >= 0 {
					terms = append(terms, lp.Term{Var: mm.VarOf[t][id], Coeff: 1})
				}
			}
			for _, id := range g.In(graph.NodeID(v)) {
				if mm.VarOf[t][id] >= 0 {
					terms = append(terms, lp.Term{Var: mm.VarOf[t][id], Coeff: -1})
				}
			}
			mm.DemandRow[t][v] = prob.AddEQ(terms, col[v])
		}
	}
	// Capacity: sum_t flow_t(e) <= alpha * c_e.
	for _, e := range g.Edges() {
		mm.CapRow[e.ID] = -1
		terms := []lp.Term{{Var: mm.Alpha, Coeff: -e.Capacity}}
		for t := 0; t < n; t++ {
			if mm.active[t] && mm.VarOf[t][e.ID] >= 0 {
				terms = append(terms, lp.Term{Var: mm.VarOf[t][e.ID], Coeff: 1})
			}
		}
		if len(terms) > 1 {
			mm.CapRow[e.ID] = prob.AddLE(terms, 0)
		}
	}
	return mm
}

// SetDemand moves the demand from s toward t to d by editing the
// conservation row's RHS in place — the bound-only edit the dual simplex
// warm restart is built for. The destination must have been active at
// construction time.
func (mm *MinMLUModel) SetDemand(s, t graph.NodeID, d float64) error {
	if int(t) >= len(mm.DemandRow) || mm.DemandRow[t] == nil {
		return fmt.Errorf("mcf: destination %d inactive in this formulation", t)
	}
	r := mm.DemandRow[t][s]
	if r < 0 {
		return fmt.Errorf("mcf: no conservation row for %d→%d", s, t)
	}
	mm.Model.SetRowBounds(r, d, d)
	return nil
}

// Solve runs the LP with the given options (typically a carried Basis) and
// unpacks the solution into MLU, per-destination edge flows, the optimal
// basis, and the capacity-row dual certificate (Lengths).
func (mm *MinMLUModel) Solve(opts *lp.SolveOptions) (*Solution, error) {
	sol, err := mm.Model.Solve(opts)
	if err != nil {
		return nil, fmt.Errorf("mcf: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, ErrUnroutable
	}
	n := mm.g.NumNodes()
	flows := make([][]float64, n)
	for t := 0; t < n; t++ {
		if !mm.active[t] {
			continue
		}
		flows[t] = make([]float64, mm.g.NumEdges())
		for e := range flows[t] {
			if mm.VarOf[t][e] >= 0 {
				flows[t][e] = sol.X[mm.VarOf[t][e]]
			}
		}
	}
	return &Solution{MLU: sol.Objective, Flows: flows, Basis: sol.Basis, Lengths: mm.lengths(sol.Duals)}, nil
}

// lengths reads the capacity-row duals y as the link-length function
// w_e = max(0, −y_e), normalized to Σ_e c_e·w_e = 1. It returns nil when
// there are no duals (the dense fallback) or no positive length.
func (mm *MinMLUModel) lengths(y []float64) Lengths {
	if y == nil {
		return nil
	}
	w := make(Lengths, len(mm.CapRow))
	sum := 0.0
	for e, r := range mm.CapRow {
		if r >= 0 && y[r] < 0 {
			w[e] = -y[r]
			sum += w[e] * mm.g.Edge(graph.EdgeID(e)).Capacity
		}
	}
	if !(sum > 0) || math.IsInf(sum, 1) {
		return nil
	}
	for e := range w {
		w[e] /= sum
	}
	return w
}

// Lengths is a link-length function w ≥ 0 with Σ_e c_e·w_e = 1, indexed by
// edge ID, read off the capacity-row duals of an optimal min-MLU solve.
// Setting every conservation dual to the w-distance toward its destination
// makes a feasible dual for ANY demand matrix, so weak duality gives
//
//	OPTDAG(D) ≥ Σ_st d_st · dist_w(s→t within DAG_t)
//
// for every D — over the same graph and DAGs, whatever its active
// destinations (the tech report's normalization certificate, Theorem 5).
// The inequality needs only w ≥ 0 and the normalization, both enforced
// when the duals are read, so solver tolerances in the duals can loosen
// the bound but never make it unsound; at the matrix the lengths came
// from it is tight.
type Lengths []float64

// Dists returns dist_w(s→t within DAG_t) laid out like demand.Matrix.D
// (index s·n+t; +Inf where s cannot reach t inside DAG_t). It takes one
// reverse pass over each DAG's topological order.
func (w Lengths) Dists(g *graph.Graph, dags []*dagx.DAG) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n*n)
	col := make([]float64, n)
	for t := 0; t < n; t++ {
		dag := dags[t]
		for v := range col {
			col[v] = math.Inf(1)
		}
		col[t] = 0
		for i := len(dag.Order) - 1; i >= 0; i-- {
			u := dag.Order[i]
			if u == graph.NodeID(t) {
				continue
			}
			for _, id := range g.Out(u) {
				if dag.Member[id] {
					if d := w[id] + col[g.Edge(id).To]; d < col[u] {
						col[u] = d
					}
				}
			}
		}
		for s := 0; s < n; s++ {
			dist[s*n+t] = col[s]
		}
	}
	return dist
}

// LowerBound returns Σ_st d_st·dist[st] for a distance table from Dists:
// a certified lower bound on OPTDAG(D) (+Inf when D sends traffic that
// its DAG cannot carry).
func LowerBound(D *demand.Matrix, dist []float64) float64 {
	lb := 0.0
	for i, d := range D.D {
		if d > 0 {
			lb += d * dist[i]
		}
	}
	return lb
}

// MinMLUExactDense solves the identical formulation on the dense
// full-tableau reference solver. It is the parity oracle for the sparse
// engine (see mcf parity tests and BenchmarkExactOPT) and is not used on
// any production path.
func MinMLUExactDense(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix) (float64, [][]float64, error) {
	n := g.NumNodes()
	if D.Total() == 0 {
		return 0, make([][]float64, n), nil
	}
	prob := lp.NewProblem(lp.Minimize)
	alpha := prob.AddVariable()
	prob.SetObjective(alpha, 1)

	varOf := make([][]int, n)
	active := make([]bool, n)
	for t := 0; t < n; t++ {
		col := D.ToDestination(graph.NodeID(t))
		for _, d := range col {
			if d > 0 {
				active[t] = true
				break
			}
		}
		if !active[t] {
			continue
		}
		allowed := allowedEdges(g, dags, graph.NodeID(t))
		varOf[t] = make([]int, g.NumEdges())
		for e := range varOf[t] {
			if allowed[e] {
				varOf[t][e] = prob.AddVariable()
			} else {
				varOf[t][e] = -1
			}
		}
		for v := 0; v < n; v++ {
			if v == t {
				continue
			}
			var terms []lp.Term
			for _, id := range g.Out(graph.NodeID(v)) {
				if varOf[t][id] >= 0 {
					terms = append(terms, lp.Term{Var: varOf[t][id], Coeff: 1})
				}
			}
			for _, id := range g.In(graph.NodeID(v)) {
				if varOf[t][id] >= 0 {
					terms = append(terms, lp.Term{Var: varOf[t][id], Coeff: -1})
				}
			}
			prob.AddConstraint(terms, lp.EQ, col[v])
		}
	}
	for _, e := range g.Edges() {
		terms := []lp.Term{{Var: alpha, Coeff: -e.Capacity}}
		for t := 0; t < n; t++ {
			if active[t] && varOf[t][e.ID] >= 0 {
				terms = append(terms, lp.Term{Var: varOf[t][e.ID], Coeff: 1})
			}
		}
		if len(terms) > 1 {
			prob.AddConstraint(terms, lp.LE, 0)
		}
	}
	sol, err := prob.Solve()
	if err != nil {
		return 0, nil, fmt.Errorf("mcf: %w", err)
	}
	if sol.Status != lp.Optimal {
		return math.Inf(1), nil, ErrUnroutable
	}
	flows := make([][]float64, n)
	for t := 0; t < n; t++ {
		if !active[t] {
			continue
		}
		flows[t] = make([]float64, g.NumEdges())
		for e := range flows[t] {
			if varOf[t][e] >= 0 {
				flows[t][e] = sol.X[varOf[t][e]]
			}
		}
	}
	return sol.Objective, flows, nil
}

// MinMLUApprox approximates min-MLU with a Garg–Könemann/Fleischer
// multiplicative-weights scheme, aggregating commodities per destination
// (one shortest-path tree per destination per phase). The returned flow
// routes D exactly; its utilization lies in [OPT, (1+O(eps))·OPT].
//
// When dags is non-nil the flow is restricted to the DAGs and is therefore
// acyclic per destination (convertible to splitting ratios).
func MinMLUApprox(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix, eps float64) (float64, [][]float64, error) {
	if eps <= 0 || eps >= 0.5 {
		return 0, nil, fmt.Errorf("mcf: eps %g out of range (0, 0.5)", eps)
	}
	n := g.NumNodes()
	if D.Total() == 0 {
		return 0, make([][]float64, n), nil
	}
	// Scale demands so a single-shortest-path routing has MLU 1; this keeps
	// the concurrency β = 1/OPT within a small constant and bounds the
	// number of phases.
	refMLU, err := singlePathMLU(g, dags, D)
	if err != nil {
		return math.Inf(1), nil, err
	}
	for attempt := 0; attempt < 8; attempt++ {
		scale := 1 / refMLU
		scaled := D.Clone().Scale(scale)
		mlu, flows, ok := gkRun(g, dags, scaled, eps)
		if !ok {
			// Zero full phases completed: demands too large relative to the
			// length budget; shrink and retry.
			refMLU *= 2
			continue
		}
		// Undo scaling: flow/scale routes D with utilization mlu/scale.
		for t := range flows {
			if flows[t] == nil {
				continue
			}
			for e := range flows[t] {
				flows[t][e] /= scale
			}
		}
		return mlu / scale, flows, nil
	}
	return 0, nil, errors.New("mcf: approximation failed to complete a phase")
}

// gkRun executes the core multiplicative-weights loop. It reports ok=false
// if no full phase completed.
func gkRun(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix, eps float64) (float64, [][]float64, bool) {
	n := g.NumNodes()
	m := g.NumEdges()
	delta := (1 + eps) * math.Pow((1+eps)*float64(m), -1/eps)
	length := make([]float64, m)
	sumLC := 0.0 // Σ l(e)·c(e)
	for _, e := range g.Edges() {
		length[e.ID] = delta / e.Capacity
		sumLC += delta
	}
	done := make([][]float64, n)  // flows from completed phases
	phase := make([][]float64, n) // flows from the in-progress phase
	var dests []int
	for t := 0; t < n; t++ {
		col := D.ToDestination(graph.NodeID(t))
		for _, d := range col {
			if d > 0 {
				dests = append(dests, t)
				done[t] = make([]float64, m)
				phase[t] = make([]float64, m)
				break
			}
		}
	}
	phases := 0
	maxPhases := 200000
	for sumLC < 1 && phases < maxPhases {
		for _, t := range dests {
			allowed := allowedEdges(g, dags, graph.NodeID(t))
			parent := spTree(g, graph.NodeID(t), length, allowed)
			col := D.ToDestination(graph.NodeID(t))
			for s := 0; s < n; s++ {
				if col[s] <= 0 || s == t {
					continue
				}
				if parent[s] < 0 {
					return 0, nil, false // unreachable (caller validated, so defensive)
				}
				rem := col[s]
				for rem > 1e-15 {
					// Walk the tree path, find the bottleneck capacity.
					bottleneck := math.Inf(1)
					for u := graph.NodeID(s); u != graph.NodeID(t); {
						e := g.Edge(parent[u])
						if e.Capacity < bottleneck {
							bottleneck = e.Capacity
						}
						u = e.To
					}
					f := math.Min(rem, bottleneck)
					for u := graph.NodeID(s); u != graph.NodeID(t); {
						e := g.Edge(parent[u])
						phase[t][e.ID] += f
						dl := length[e.ID] * eps * f / e.Capacity
						length[e.ID] += dl
						sumLC += dl * e.Capacity
						u = e.To
					}
					rem -= f
				}
			}
		}
		phases++
		for _, t := range dests {
			for e := 0; e < m; e++ {
				done[t][e] += phase[t][e]
				phase[t][e] = 0
			}
		}
	}
	if phases == 0 {
		return 0, nil, false
	}
	inv := 1 / float64(phases)
	mlu := 0.0
	for _, t := range dests {
		for e := 0; e < m; e++ {
			done[t][e] *= inv
		}
	}
	for _, ed := range g.Edges() {
		load := 0.0
		for _, t := range dests {
			load += done[t][ed.ID]
		}
		if u := load / ed.Capacity; u > mlu {
			mlu = u
		}
	}
	return mlu, done, true
}

// spTree computes a shortest-path tree toward t under the given edge
// lengths, restricted to allowed edges. parent[u] is the first edge of u's
// shortest path (or -1 if unreachable / u == t).
func spTree(g *graph.Graph, t graph.NodeID, length []float64, allowed []bool) []graph.EdgeID {
	n := g.NumNodes()
	dist := make([]float64, n)
	parent := make([]graph.EdgeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[t] = 0
	pq := &distHeap{{node: t, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.dist > dist[it.node] {
			continue
		}
		for _, id := range g.In(it.node) {
			if !allowed[id] {
				continue
			}
			e := g.Edge(id)
			nd := it.dist + length[id]
			if nd < dist[e.From] {
				dist[e.From] = nd
				parent[e.From] = id
				heap.Push(pq, distItem{node: e.From, dist: nd})
			}
		}
	}
	return parent
}

// singlePathMLU routes every demand along one shortest path (by OSPF
// weight) and returns the resulting utilization — a cheap upper bound on
// OPT used only for demand scaling.
func singlePathMLU(g *graph.Graph, dags []*dagx.DAG, D *demand.Matrix) (float64, error) {
	n := g.NumNodes()
	loads := make([]float64, g.NumEdges())
	weights := make([]float64, g.NumEdges())
	for _, e := range g.Edges() {
		weights[e.ID] = e.Weight
	}
	for t := 0; t < n; t++ {
		col := D.ToDestination(graph.NodeID(t))
		any := false
		for _, d := range col {
			if d > 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		allowed := allowedEdges(g, dags, graph.NodeID(t))
		parent := spTree(g, graph.NodeID(t), weights, allowed)
		for s := 0; s < n; s++ {
			if col[s] <= 0 || s == t {
				continue
			}
			if parent[s] < 0 {
				return 0, ErrUnroutable
			}
			for u := graph.NodeID(s); u != graph.NodeID(t); {
				e := g.Edge(parent[u])
				loads[e.ID] += col[s]
				u = e.To
			}
		}
	}
	mlu := 0.0
	for _, e := range g.Edges() {
		if u := loads[e.ID] / e.Capacity; u > mlu {
			mlu = u
		}
	}
	return mlu, nil
}

type distItem struct {
	node graph.NodeID
	dist float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
