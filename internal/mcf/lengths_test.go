package mcf

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestLengthsBoundOPTDAG checks the dual certificate both ways: the length
// bound from a solve of D is tight at D (strong duality), and it never
// exceeds OPTDAG of another matrix (weak duality) — neither of another box
// corner nor of a matrix with a different set of active destinations.
func TestLengthsBoundOPTDAG(t *testing.T) {
	for _, name := range []string{"NSF", "Geant", "Abilene"} {
		g, err := topo.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		dags := dagx.BuildAll(g, dagx.Augmented)
		box := demand.MarginBox(demand.Gravity(g, 1), 2)
		D := box.Max
		sol, err := MinMLUExactBasis(g, dags, D, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Lengths == nil {
			t.Fatalf("%s: optimal solve returned no length certificate", name)
		}
		cw := 0.0
		for e, w := range sol.Lengths {
			if w < 0 {
				t.Fatalf("%s: negative length %g on edge %d", name, w, e)
			}
			cw += w * g.Edge(graph.EdgeID(e)).Capacity
		}
		if math.Abs(cw-1) > 1e-12 {
			t.Fatalf("%s: Σ c·w = %.17g, want 1", name, cw)
		}
		dist := sol.Lengths.Dists(g, dags)
		lb := LowerBound(D, dist)
		if math.Abs(lb-sol.MLU) > 1e-9*sol.MLU {
			t.Fatalf("%s: bound at its own matrix %.17g, OPTDAG %.17g", name, lb, sol.MLU)
		}
		t.Logf("%s: bound %.17g, OPTDAG %.17g", name, lb, sol.MLU)

		rng := rand.New(rand.NewSource(int64(n)))
		corner := box.Corner(func(s, t graph.NodeID) bool { return rng.Intn(2) == 0 })
		fewer := restrictDestinations(box.Min, 0, graph.NodeID(n/2), graph.NodeID(n-1))
		for _, other := range []struct {
			label string
			D     *demand.Matrix
		}{{"corner", corner}, {"three destinations", fewer}} {
			opt, _, err := MinMLUExact(g, dags, other.D)
			if err != nil {
				t.Fatal(err)
			}
			lb := LowerBound(other.D, dist)
			if lb > opt*(1+1e-12) {
				t.Fatalf("%s %s: bound %.17g exceeds OPTDAG %.17g", name, other.label, lb, opt)
			}
			t.Logf("%s %s: bound %.6g ≤ OPTDAG %.6g", name, other.label, lb, opt)
		}
	}
}
