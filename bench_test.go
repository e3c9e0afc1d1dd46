// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact, per DESIGN.md §3), plus
// micro-benchmarks of the pipeline stages. The benchmarks run the reduced
// (Quick) experiment configuration so that `go test -bench=.` finishes in
// minutes; `cmd/coyote-eval` runs the full configurations recorded in
// EXPERIMENTS.md.
package coyote_test

import (
	"io"
	"testing"

	coyote "github.com/coyote-te/coyote"
	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/delta"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/exp"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/mcf"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/spf"
	"github.com/coyote-te/coyote/internal/topo"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := exp.Quick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := exp.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tab.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunningExample regenerates the Fig. 1 / Appendix B numbers.
func BenchmarkRunningExample(b *testing.B) { benchExperiment(b, "running") }

// BenchmarkFig6Geant regenerates Fig. 6 (Geant, gravity).
func BenchmarkFig6Geant(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7Digex regenerates Fig. 7 (Digex, gravity).
func BenchmarkFig7Digex(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8AS1755 regenerates Fig. 8 (AS1755, bimodal).
func BenchmarkFig8AS1755(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9Abilene regenerates Fig. 9 (local-search heuristic). The
// quick configuration trims the margin range.
func BenchmarkFig9Abilene(b *testing.B) {
	cfg := exp.Quick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := exp.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tab.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Approx regenerates Fig. 10 (virtual next-hop quantization).
func BenchmarkFig10Approx(b *testing.B) {
	cfg := exp.Quick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := exp.Fig10(cfg, []int{3, 5, 10})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tab.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Stretch regenerates Fig. 11 (path stretch) on a corpus
// subset.
func BenchmarkFig11Stretch(b *testing.B) {
	cfg := exp.Quick()
	names := []string{"NSF", "Abilene", "Germany"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := exp.Fig11(cfg, names)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tab.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Prototype regenerates the §VII prototype emulation.
func BenchmarkFig12Prototype(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkTable1 regenerates Table I rows on a corpus subset (the full
// 14-topology table is produced by cmd/coyote-eval -run table1).
func BenchmarkTable1(b *testing.B) {
	cfg := exp.Quick()
	names := []string{"NSF", "Abilene"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := exp.Table1(cfg, names)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tab.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDAGAug measures the DAG-augmentation ablation.
func BenchmarkAblationDAGAug(b *testing.B) {
	cfg := exp.Quick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := exp.AblationDAG("NSF", cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tab.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAdversary measures sampled-vs-exact adversary accuracy.
func BenchmarkAblationAdversary(b *testing.B) { benchExperiment(b, "ablation-adv") }

// BenchmarkNPGadget runs the Theorem 1 reduction demonstration.
func BenchmarkNPGadget(b *testing.B) { benchExperiment(b, "negative-np") }

// BenchmarkPathLowerBound runs the Theorem 4 demonstration.
func BenchmarkPathLowerBound(b *testing.B) { benchExperiment(b, "negative-path") }

// benchCompute measures the full public-API pipeline (DAG construction,
// splitting optimization, adversarial evaluation) on a corpus topology at
// Quick-configuration effort. Options.Workers is left at zero so the
// evaluation engine sizes its worker pool to GOMAXPROCS — running with
// `-cpu=1,4` therefore contrasts serial and 4-worker wall-clock directly.
func benchCompute(b *testing.B, name string) {
	b.Helper()
	quick := exp.Quick()
	topo, err := coyote.LoadTopology(name)
	if err != nil {
		b.Fatal(err)
	}
	bounds := coyote.MarginBounds(coyote.GravityDemands(topo, 1), 2)
	lp.ResetGlobalStats()
	pruned0 := prunedTotal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coyote.New(topo, bounds, coyote.Options{
			OptimizerIters:   quick.OptIters,
			AdversarialIters: quick.AdvIters,
			Samples:          quick.Samples,
			Eps:              quick.Eps,
			Seed:             1,
		}).Compute(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := lp.GlobalStats()
	b.ReportMetric(float64(st.Solves)/float64(b.N), "lp_solves/op")
	b.ReportMetric(float64(st.Iterations)/float64(b.N), "lp_iters/op")
	b.ReportMetric((prunedTotal()-pruned0)/float64(b.N), "pruned/op")
}

// prunedTotal reads the adversary's pruned-candidate counter.
func prunedTotal() float64 {
	v, _ := obs.Default.Snapshot().Total("coyote_oblivious_candidates_pruned_total")
	return v
}

// BenchmarkCompute is the headline scaling benchmark of the concurrent
// evaluation engine (DESIGN.md §4): Geant, gravity demands, margin 2.
// Run `go test -bench=BenchmarkCompute -cpu=1,4` to see the worker-pool
// speedup recorded in EXPERIMENTS.md; the parity test guarantees the
// results themselves are identical at every -cpu value.
func BenchmarkCompute(b *testing.B) { benchCompute(b, "Geant") }

// BenchmarkComputeNSF is the same measurement on the small NSF backbone,
// where the per-destination fan-out (rather than the candidate fan-out)
// carries most of the parallelism.
func BenchmarkComputeNSF(b *testing.B) { benchCompute(b, "NSF") }

// BenchmarkComputeEndToEnd measures the public-API pipeline on the
// running-example network.
func BenchmarkComputeEndToEnd(b *testing.B) {
	t := coyote.NewTopology()
	s1 := t.AddNode("s1")
	s2 := t.AddNode("s2")
	v := t.AddNode("v")
	tt := t.AddNode("t")
	t.AddLink(s1, s2, 1, 1)
	t.AddLink(s1, v, 1, 1)
	t.AddLink(s2, v, 1, 1)
	t.AddLink(s2, tt, 1, 1)
	t.AddLink(v, tt, 1, 1)
	base := coyote.NewDemandMatrix(t)
	base.Set(s1, tt, 1)
	base.Set(s2, tt, 1)
	bounds := coyote.MarginBounds(base, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coyote.New(t, bounds, coyote.Options{
			OptimizerIters: 200, AdversarialIters: 2, Seed: 1,
		}).Compute(); err != nil {
			b.Fatal(err)
		}
	}
}

// warmBenchBoxes builds the two demand boxes the recompute benchmarks
// alternate between, simulating a drifting operator view on Geant.
func warmBenchBoxes(b *testing.B) (*coyote.Topology, [2]*coyote.Bounds) {
	b.Helper()
	topo, err := coyote.LoadTopology("Geant")
	if err != nil {
		b.Fatal(err)
	}
	base := coyote.GravityDemands(topo, 1)
	shifted := coyote.GravityDemands(topo, 1.15)
	return topo, [2]*coyote.Bounds{
		coyote.MarginBounds(base, 2),
		coyote.MarginBounds(shifted, 2.2),
	}
}

// BenchmarkWarmRecompute measures the online controller's incremental
// path: one Session absorbing alternating demand-box updates, each
// recompute warm-starting from the previous log-ratio/Adam state with the
// adversary's critical matrices carried over and OPTDAG normalizations
// cached. Compare with BenchmarkColdRecompute — the same sequence of
// boxes, each paying the full batch pipeline from scratch.
func BenchmarkWarmRecompute(b *testing.B) {
	quick := exp.Quick()
	topo, boxes := warmBenchBoxes(b)
	s, err := coyote.NewSession(topo, boxes[0], coyote.Options{
		OptimizerIters:   quick.OptIters,
		AdversarialIters: quick.AdvIters,
		Samples:          quick.Samples,
		Eps:              quick.Eps,
		Seed:             1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.UpdateBounds(boxes[(i+1)%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdRecompute is the batch-pipeline reference for
// BenchmarkWarmRecompute: the identical alternating boxes, recomputed cold
// (full Compute) every time.
func BenchmarkColdRecompute(b *testing.B) {
	quick := exp.Quick()
	topo, boxes := warmBenchBoxes(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coyote.New(topo, boxes[(i+1)%2], coyote.Options{
			OptimizerIters:   quick.OptIters,
			AdversarialIters: quick.AdvIters,
			Samples:          quick.Samples,
			Eps:              quick.Eps,
			Seed:             1,
		}).Compute(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionFailRecover measures the online controller's warm
// reaction latency to a link event on Geant: each op is one session
// update — alternately failing and recovering the same link — where the
// epoch's shortest-path DAGs come from incrementally repaired distance
// fields (spf.Incremental) and the optimizer refines the carried
// configuration for a few warm iterations (the paper's §VI-A operating
// point: failure reactions refine precomputed state, they don't
// recompute). The <100ms/op target is the PR-9 acceptance number.
func BenchmarkSessionFailRecover(b *testing.B) {
	quick := exp.Quick()
	g, err := topo.Load("Geant")
	if err != nil {
		b.Fatal(err)
	}
	s, err := delta.NewSession(g, demand.MarginBox(demand.Gravity(g, 1), 2), delta.Config{
		OptIters: quick.OptIters,
		AdvIters: quick.AdvIters,
		Samples:  quick.Samples,
		Eps:      quick.Eps,
		Seed:     1,
		// The failover plan is what makes Fail a warm swap-and-refine
		// instead of a cold survivor recompute; the warm budget is a
		// handful of gradient steps on the swapped-in configuration.
		PrecomputeFailover: true,
		WarmOptIters:       8,
		WarmAdvIters:       2,
	})
	if err != nil {
		b.Fatal(err)
	}
	// First link whose failure the session accepts (doesn't partition);
	// the probe pair also warms the session so b.N measures steady state.
	link := graph.EdgeID(-1)
	for _, l := range g.Links() {
		if _, err := s.Fail(l); err == nil {
			if _, err := s.Recover(l); err != nil {
				b.Fatal(err)
			}
			link = l
			break
		}
	}
	if link < 0 {
		b.Fatal("no non-partitioning link on Geant")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if _, err := s.Fail(link); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := s.Recover(link); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSPFRepair isolates the dynamic-SPF layer under the session
// benchmark: one op is a link fail + recover repaired across every
// destination's distance field on Geant. The cold reference pays what a
// cold session pays for the same pair — two full all-destination Dijkstra
// rebuilds. The incremental/cold ratio is the near-O(affected) claim in
// DESIGN.md §12 made measurable (and, with -benchmem, the repair path's
// zero-allocation contract).
func BenchmarkSPFRepair(b *testing.B) {
	g, err := topo.Load("Geant")
	if err != nil {
		b.Fatal(err)
	}
	// First link whose removal keeps the topology connected, so the
	// repaired fields never degenerate to unreachable-everywhere.
	link := graph.EdgeID(-1)
	for _, l := range g.Links() {
		if g.WithoutLinks([]graph.EdgeID{l}).Connected() {
			link = l
			break
		}
	}
	if link < 0 {
		b.Fatal("no non-bridge link on Geant")
	}
	b.Run("incremental", func(b *testing.B) {
		incs := make([]*spf.Incremental, g.NumNodes())
		for t := range incs {
			incs[t] = spf.NewIncremental(g, graph.NodeID(t))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, inc := range incs {
				inc.FailLink(link)
			}
			for _, inc := range incs {
				inc.RecoverLink(link)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		survivor := g.WithoutLinks([]graph.EdgeID{link})
		n := g.NumNodes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for t := 0; t < n; t++ {
				spf.ToDestination(survivor, graph.NodeID(t))
			}
			for t := 0; t < n; t++ {
				spf.ToDestination(g, graph.NodeID(t))
			}
		}
	})
}

// BenchmarkExactOPT is the sparse-core acceptance benchmark: exact OPTDAG
// (min-MLU within the augmented DAGs, gravity demands) on the largest
// corpus topology, BICS (33 nodes, 96 directed edges), solved by the
// sparse revised simplex versus the dense full-tableau reference. The
// sparse core is what lets ExactNodeLimit cover the entire corpus.
func BenchmarkExactOPT(b *testing.B) {
	g, err := topo.Load("BICS")
	if err != nil {
		b.Fatal(err)
	}
	D := demand.Gravity(g, 1)
	dags := dagx.BuildAll(g, dagx.Augmented)
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mcf.MinMLUExactBasis(g, dags, D, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := mcf.MinMLUExactDense(g, dags, D); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDualRestart measures the PR-6 headline: re-solving the exact
// OPTDAG LP after demand (RHS) edits from the carried basis, where the
// dual simplex repairs primal infeasibility in place, versus rebuilding
// and cold-solving the edited instance. The pivots/op metric exposes the
// iteration ratio behind the wall-clock gap (ROADMAP target: warm well
// under 0.6× cold).
func BenchmarkDualRestart(b *testing.B) {
	g, err := topo.Load("NSF")
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumNodes()
	D := demand.Gravity(g, 1)
	dags := dagx.BuildAll(g, dagx.Augmented)
	// A deterministic drift cycle: each step rescales one source's demand
	// toward one destination, the bound-only edit the dual restart targets.
	type edit struct {
		s, t  int
		scale float64
	}
	var edits []edit
	for i := 0; i < 8; i++ {
		edits = append(edits, edit{
			s:     (i * 5) % n,
			t:     (i*3 + 1) % n,
			scale: []float64{1.7, 0.6, 2.3, 0.45}[i%4],
		})
	}
	b.Run("dual-warm", func(b *testing.B) {
		mm := mcf.NewMinMLUModel(g, dags, D)
		sol, err := mm.Solve(nil)
		if err != nil {
			b.Fatal(err)
		}
		basis := sol.Basis
		cur := D.Clone()
		lp.ResetGlobalStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := edits[i%len(edits)]
			if e.s == e.t || cur.D[e.s*n+e.t] <= 0 {
				e.s = (e.s + 1) % n
			}
			if e.s == e.t || cur.D[e.s*n+e.t] <= 0 {
				continue
			}
			d := cur.D[e.s*n+e.t] * e.scale
			cur.D[e.s*n+e.t] = d
			if err := mm.SetDemand(graph.NodeID(e.s), graph.NodeID(e.t), d); err != nil {
				b.Fatal(err)
			}
			sol, err := mm.Solve(&lp.SolveOptions{Basis: basis})
			if err != nil {
				b.Fatal(err)
			}
			basis = sol.Basis
		}
		b.StopTimer()
		st := lp.GlobalStats()
		b.ReportMetric(float64(st.Iterations)/float64(b.N), "pivots/op")
		b.ReportMetric(float64(st.DualIterations)/float64(b.N), "dual-pivots/op")
	})
	b.Run("cold", func(b *testing.B) {
		cur := D.Clone()
		lp.ResetGlobalStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := edits[i%len(edits)]
			if e.s == e.t || cur.D[e.s*n+e.t] <= 0 {
				e.s = (e.s + 1) % n
			}
			if e.s == e.t || cur.D[e.s*n+e.t] <= 0 {
				continue
			}
			cur.D[e.s*n+e.t] *= e.scale
			if _, err := mcf.MinMLUExactBasis(g, dags, cur, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := lp.GlobalStats()
		b.ReportMetric(float64(st.Iterations)/float64(b.N), "pivots/op")
	})
}

// BenchmarkSlaveLP measures the Appendix-C exact adversary (one slave LP
// per link, shared rows) on Abilene with and without the per-link
// basis-chain warm start — the warm/cold contrast isolates what carrying
// the previous link's vertex saves.
func BenchmarkSlaveLP(b *testing.B) {
	g, err := topo.Load("Abilene")
	if err != nil {
		b.Fatal(err)
	}
	box := demand.MarginBox(demand.Gravity(g, 1), 2)
	dags := dagx.BuildAll(g, dagx.Augmented)
	ev := oblivious.NewEvaluator(g, dags, box, oblivious.EvalConfig{Samples: 2, Seed: 1})
	r := oblivious.ECMPOnDAGs(g, dags)
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ev.PerfExact(r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ev.PerfExactNoWarm(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFailover measures precomputing per-link failure configurations
// (§VI-A) on NSF.
func BenchmarkFailover(b *testing.B) {
	cfg := exp.Quick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := exp.Failover("NSF", cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tab.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
