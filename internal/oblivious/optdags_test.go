package oblivious

import (
	"math"
	"slices"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestOptDAGsWorkerParity runs two OptDAGs batches of 12 NSF box corners —
// the first on a cold cache (the bootstrap solve, then a fan-out from its
// basis), the second from the basis the first published — at 1 and 4
// workers. Values must be bit-identical across widths and to the
// bootstrap chain solved by hand, match a cold exact solve, and both
// widths must publish the same unstalled basis.
func TestOptDAGsWorkerParity(t *testing.T) {
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	dags := dagx.BuildAll(g, dagx.Augmented)
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	run := func(workers int) ([][]float64, [][]*demand.Matrix, []int8) {
		ev := NewEvaluator(g, dags, box, EvalConfig{Seed: 3, Workers: workers})
		var vals [][]float64
		var batches [][]*demand.Matrix
		for b := 0; b < 2; b++ {
			Ds := make([]*demand.Matrix, 12)
			for i := range Ds {
				Ds[i] = ev.randomCorner(uint64(b+1), i)
			}
			batches = append(batches, Ds)
			vals = append(vals, ev.OptDAGs(Ds))
		}
		basis := ev.cache.warmBasis()
		if basis == nil {
			t.Fatalf("workers=%d: no basis published", workers)
		}
		if basis.DualStall != 0 {
			t.Fatalf("workers=%d: published a dual-stalled basis", workers)
		}
		return vals, batches, basis.Status
	}
	vals1, batches, status1 := run(1)
	vals4, _, status4 := run(4)
	// The bootstrap: on a cold cache the first miss is solved alone and
	// the rest start from its basis, the chain one-at-a-time calls
	// would begin with.
	ref := NewEvaluator(g, dags, box, EvalConfig{Seed: 3})
	first, sol := ref.optDAGWarm(batches[0][0], nil)
	if first != vals1[0][0] {
		t.Fatalf("bootstrap solve gave %v, a cold solve %v", vals1[0][0], first)
	}
	for i, D := range batches[0][1:] {
		if v, _ := ref.optDAGWarm(D, sol.Basis); v != vals1[0][i+1] {
			t.Fatalf("batch 0 corner %d: %v, warm from the first solve %v", i+1, vals1[0][i+1], v)
		}
	}
	for b := range vals1 {
		for i, v := range vals1[b] {
			if vals4[b][i] != v {
				t.Fatalf("batch %d corner %d: workers=4 gave %v, workers=1 %v (must be bit-identical)", b, i, vals4[b][i], v)
			}
			cold, _, err := mcf.MinMLUExact(g, dags, batches[b][i])
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(v-cold) > 1e-9*math.Abs(cold) {
				t.Fatalf("batch %d corner %d: OptDAGs %v, cold exact %v", b, i, v, cold)
			}
		}
	}
	if !slices.Equal(status1, status4) {
		t.Fatal("published basis differs between workers=1 and workers=4")
	}
}
