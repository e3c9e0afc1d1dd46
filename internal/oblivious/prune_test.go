package oblivious_test

import (
	"fmt"
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/exp"
	"github.com/coyote-te/coyote/internal/gpopt"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/par"
	"github.com/coyote-te/coyote/internal/topo"
)

// TestPrunedCandidatesCannotReachTopK is the pruning certificate check: a
// full adversarial loop at exp.Quick effort records every candidate PerfTop
// skipped, and each is re-solved cold — its exact ratio must lie below the
// top-k threshold τ that pruned it. The oblivious box (Box.Min = 0) makes
// the closed-form single-pair adversaries seed τ before any LP runs.
func TestPrunedCandidatesCannotReachTopK(t *testing.T) {
	q := exp.Quick()
	opts := oblivious.Options{
		Optimizer: gpopt.Config{Iters: q.OptIters},
		Eval:      oblivious.EvalConfig{Eps: q.Eps, Samples: q.Samples, Seed: q.Seed},
		AdvIters:  q.AdvIters,
	}
	type pruned struct {
		D         *demand.Matrix
		mxlu, tau float64
	}
	for _, tc := range []struct {
		name      string
		oblivious bool
	}{{"NSF", false}, {"Abilene", false}, {"Geant", false}, {"NSF", true}} {
		g, err := topo.Load(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		dags := dagx.BuildAll(g, dagx.Augmented)
		base := demand.Gravity(g, 1)
		box := demand.MarginBox(base, 2)
		if tc.oblivious {
			box = demand.NewBox(demand.NewMatrix(g.NumNodes()), base)
		}
		ev := oblivious.NewEvaluator(g, dags, box, opts.Eval)
		var got []pruned
		oblivious.SetOnPrune(ev, func(D *demand.Matrix, mxlu, tau float64) {
			got = append(got, pruned{D, mxlu, tau})
		})
		oblivious.OptimizeWithEvaluator(g, dags, ev, opts)
		if len(got) == 0 {
			t.Fatalf("%s (oblivious %v): nothing pruned", tc.name, tc.oblivious)
		}
		// The same corner is often pruned by several calls (under other
		// routings); solve each distinct matrix once, cold, across the
		// worker pool.
		byMatrix := map[string][]pruned{}
		var keys []string
		for _, p := range got {
			key := fmt.Sprint(p.D.D) // shortest round-trip form: exact
			if byMatrix[key] == nil {
				keys = append(keys, key)
			}
			byMatrix[key] = append(byMatrix[key], p)
		}
		opt := make([]float64, len(keys))
		par.For(0, len(keys), func(i int) {
			opt[i], _, _ = mcf.MinMLUExact(g, dags, byMatrix[keys[i]][0].D)
		})
		for i, key := range keys {
			for _, p := range byMatrix[key] {
				// An unroutable matrix (opt = +Inf) has ratio 0 here and
				// −Inf in PerfTop; either way it is never in the top-k.
				if ratio := p.mxlu / opt[i]; ratio >= p.tau {
					t.Fatalf("%s (oblivious %v): pruned candidate has exact ratio %.12g ≥ τ %.12g",
						tc.name, tc.oblivious, ratio, p.tau)
				}
			}
		}
		t.Logf("%s (oblivious %v): %d pruned (%d distinct), all below τ",
			tc.name, tc.oblivious, len(got), len(byMatrix))
	}
}
