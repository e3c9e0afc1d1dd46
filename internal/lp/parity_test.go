package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestCrossEngineParityRandom is the randomized cross-engine parity test:
// for seeded random models, the sparse and dense engines must agree on
// status and objective, every optimal point must be feasible, and the
// sparse duals must satisfy the model's KKT conditions (duals themselves
// may differ between engines at degenerate optima, so KKT membership is
// the meaningful equality).
func TestCrossEngineParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	solved := 0
	for trial := 0; trial < 300; trial++ {
		mdl := randomModel(rng)

		ref, err := mdl.SolveDense()
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		sol, err := mdl.Solve(nil)
		if err != nil {
			t.Fatalf("trial %d: sparse: %v", trial, err)
		}
		if sol.Stats.DenseFallback {
			t.Fatalf("trial %d: sparse fell back to dense", trial)
		}
		checkMatchesDense(t, mdl, sol, ref, trial, "sparse")
		if ref.Status == Optimal {
			solved++
		}
	}
	if solved < 50 {
		t.Fatalf("only %d/300 random models optimal; generator broken?", solved)
	}
}

// TestDualAutoAfterBoundEdit is the dual-restart smoke test: a warm basis
// made primal infeasible by a bound edit must be repaired by the dual
// simplex, matching the cold optimum and the dense oracle with KKT-valid
// duals.
func TestDualAutoAfterBoundEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	activations := 0
	for trial := 0; trial < 200; trial++ {
		mdl := randomModel(rng)
		base, err := mdl.Solve(nil)
		if err != nil || base.Status != Optimal {
			continue
		}
		// Shrink a row range or variable bound near the optimum to knock the
		// carried basis primal infeasible.
		if len(mdl.rows) > 0 && rng.Intn(2) == 0 {
			r := rng.Intn(len(mdl.rows))
			lo, up := mdl.rows[r].lo, mdl.rows[r].up
			act := 0.0
			for _, tm := range mdl.rows[r].terms {
				act += tm.Coeff * base.X[tm.Var]
			}
			shift := 0.5 + rng.Float64()
			if up < spxInf {
				up = act - shift // force the activity down
			}
			if lo > -spxInf && lo > up {
				lo = up - 1
			}
			mdl.SetRowBounds(r, lo, up)
		} else {
			j := rng.Intn(mdl.NumVars())
			lo, up := mdl.vlo[j], mdl.vup[j]
			if lo == up {
				continue
			}
			up = base.X[j] - (0.25 + rng.Float64())
			if lo > up {
				lo = up
			}
			mdl.SetVarBounds(j, lo, up)
		}

		warm, err := mdl.Solve(&SolveOptions{Basis: base.Basis})
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		cold, err := mdl.Solve(nil)
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		ref, err := mdl.SolveDense()
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		checkMatchesDense(t, mdl, warm, ref, trial, "warm")
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v, cold %v", trial, warm.Status, cold.Status)
		}
		if warm.Stats.DualUsed {
			activations++
		}
		if warm.Status != Optimal {
			continue
		}
		tol := 1e-6 * (1 + math.Abs(cold.Objective))
		if math.Abs(warm.Objective-cold.Objective) > tol {
			t.Fatalf("trial %d: warm objective %.12g, cold %.12g (dual used: %v)",
				trial, warm.Objective, cold.Objective, warm.Stats.DualUsed)
		}
	}
	if activations == 0 {
		t.Fatalf("dual simplex never activated across 200 bound-edit trials")
	}
	t.Logf("dual simplex repaired %d/200 bound-edited warm starts", activations)
}

// checkMatchesDense fails the test unless sol agrees with the dense
// oracle's ref on status and objective and, when optimal, is feasible with
// KKT-valid duals.
func checkMatchesDense(t *testing.T, mdl *Model, sol, ref *Solution, trial int, label string) {
	t.Helper()
	if sol.Status != ref.Status {
		t.Fatalf("trial %d: %s status %v, dense %v", trial, label, sol.Status, ref.Status)
	}
	if sol.Status != Optimal {
		return
	}
	tol := 1e-6 * (1 + math.Abs(ref.Objective))
	if math.Abs(sol.Objective-ref.Objective) > tol {
		t.Fatalf("trial %d: %s objective %.12g, dense %.12g",
			trial, label, sol.Objective, ref.Objective)
	}
	checkFeasible(t, mdl, sol.X, trial)
	if !mdl.kktValid(sol.X, sol.Duals) {
		t.Fatalf("trial %d: %s solution fails KKT validation", trial, label)
	}
}
