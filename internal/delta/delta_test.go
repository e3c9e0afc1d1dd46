package delta

import (
	"testing"

	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/gpopt"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/lp"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/topo"
)

// testCfg is a reduced-effort configuration that still exercises every
// incremental mechanism.
func testCfg() Config {
	return Config{
		OptIters: 200,
		AdvIters: 3,
		Samples:  3,
		Seed:     1,
	}
}

func newNSFSession(t *testing.T, cfg Config) (*Session, *demand.Matrix) {
	t.Helper()
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	base := demand.Gravity(g, 1)
	s, err := NewSession(g, demand.MarginBox(base, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, base
}

func TestSessionInit(t *testing.T) {
	s, _ := newNSFSession(t, testCfg())
	if !(s.Perf() >= 1-1e-9) {
		t.Fatalf("initial PERF %v, want ≥ 1", s.Perf())
	}
	if s.Perf() > s.ECMPPerf()+1e-9 {
		t.Fatalf("initial PERF %v worse than ECMP %v", s.Perf(), s.ECMPPerf())
	}
	events := s.Events()
	if len(events) != 1 || events[0].Kind != EventInit {
		t.Fatalf("events after init: %+v", events)
	}
	if err := s.Routing().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmUpdateWithinOnePercentOfCold is the acceptance criterion: for a
// perturbed demand box, Session.UpdateBounds (warm, reduced effort) must
// reach a PERF within 1% of a cold full-effort Compute on the same inputs.
func TestWarmUpdateWithinOnePercentOfCold(t *testing.T) {
	cfg := testCfg()
	s, base := newNSFSession(t, cfg)

	perturbed := demand.MarginBox(base.Clone().Scale(1.25), 2.4)
	ev, err := s.UpdateBounds(perturbed)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Warm {
		t.Fatal("UpdateBounds did not take the warm path")
	}

	// Cold reference: the batch pipeline at full (cold) session effort on
	// the same topology, DAGs, and box.
	g := s.Base()
	dags := dagx.BuildAll(g, dagx.Augmented)
	coldEv := oblivious.NewEvaluator(g, dags, perturbed, oblivious.EvalConfig{
		Samples: cfg.Samples, Seed: cfg.Seed,
	})
	_, coldRep := oblivious.OptimizeWithEvaluator(g, dags, coldEv, oblivious.Options{
		Optimizer: gpopt.Config{Iters: cfg.OptIters},
		AdvIters:  cfg.AdvIters,
	})

	cold := coldRep.Perf.Ratio
	warm := s.Perf()
	if warm > cold*1.01 {
		t.Fatalf("warm PERF %v not within 1%% of cold %v", warm, cold)
	}
}

func TestFailRecoverRoundTrip(t *testing.T) {
	s, _ := newNSFSession(t, testCfg())
	initial := s.Perf()

	link := s.Base().Links()[0]
	evFail, err := s.Fail(link)
	if err != nil {
		t.Fatal(err)
	}
	if evFail.Kind != EventFail {
		t.Fatalf("event kind %q, want fail", evFail.Kind)
	}
	if s.Graph().NumEdges() != s.Base().NumEdges()-2 {
		t.Fatalf("survivor has %d edges, want %d", s.Graph().NumEdges(), s.Base().NumEdges()-2)
	}
	if got := s.FailedLinks(); len(got) != 1 || got[0] != link {
		t.Fatalf("FailedLinks = %v, want [%d]", got, link)
	}
	if !(s.Perf() >= 1-1e-9) {
		t.Fatalf("post-failure PERF %v, want ≥ 1", s.Perf())
	}

	evRec, err := s.Recover(link)
	if err != nil {
		t.Fatal(err)
	}
	if evRec.Kind != EventRecover || !evRec.Warm {
		t.Fatalf("recovery event %+v, want warm recover", evRec)
	}
	if s.Graph() != s.Base() {
		t.Fatal("recovery did not restore the base topology")
	}
	if len(s.FailedLinks()) != 0 {
		t.Fatal("failed set not empty after recovery")
	}
	// The recovered configuration must be in the same quality regime as
	// the initial one (warm restart from the base-epoch state).
	if s.Perf() > initial*1.05 {
		t.Fatalf("recovered PERF %v much worse than initial %v", s.Perf(), initial)
	}

	// Double-fail and double-recover are rejected.
	if _, err := s.Recover(link); err == nil {
		t.Fatal("recovering a healthy link must fail")
	}
	if _, err := s.Fail(link); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fail(link); err == nil {
		t.Fatal("failing a failed link must fail")
	}
}

func TestFailoverPlanSwap(t *testing.T) {
	cfg := testCfg()
	cfg.PrecomputeFailover = true
	s, _ := newNSFSession(t, cfg)
	link := s.Base().Links()[0]
	ev, err := s.Fail(link)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Warm {
		t.Fatal("planned failover should refine warm from the precomputed configuration")
	}
	if !(s.Perf() >= 1-1e-9) {
		t.Fatalf("post-failover PERF %v, want ≥ 1", s.Perf())
	}
}

func TestPartitioningFailureRejected(t *testing.T) {
	// A 3-node line: failing either link partitions the network.
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddLink(a, b, 1, 1)
	g.AddLink(b, c, 1, 1)
	base := demand.Gravity(g, 1)
	s, err := NewSession(g, demand.MarginBox(base, 2), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	before := s.Perf()
	if _, err := s.Fail(g.Links()[0]); err == nil {
		t.Fatal("partitioning failure must be rejected")
	}
	if s.Perf() != before || len(s.FailedLinks()) != 0 {
		t.Fatal("rejected failure mutated the session")
	}
}

func TestLiesAndChurn(t *testing.T) {
	s, base := newNSFSession(t, testCfg())

	first, err := s.Lies(3)
	if err != nil {
		t.Fatal(err)
	}
	if first.Diff.Churn() != first.FakeNodes {
		t.Fatalf("first diff churn %d, want full injection %d", first.Diff.Churn(), first.FakeNodes)
	}

	// Unchanged configuration → empty diff.
	second, err := s.Lies(3)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Diff.Empty() {
		t.Fatalf("unchanged configuration produced churn %d", second.Diff.Churn())
	}

	// A demand drift should reconfigure some — but not all — LSAs.
	if _, err := s.UpdateBounds(demand.MarginBox(base.Clone().Scale(1.5), 3)); err != nil {
		t.Fatal(err)
	}
	third, err := s.Lies(3)
	if err != nil {
		t.Fatal(err)
	}
	if third.Diff.Churn() > third.FakeNodes+first.FakeNodes {
		t.Fatalf("churn %d exceeds flush-and-reload bound", third.Diff.Churn())
	}

	// The event log recorded the churn metric.
	var liesEvents int
	for _, e := range s.Events() {
		if e.Kind == EventLies {
			liesEvents++
		}
	}
	if liesEvents != 3 {
		t.Fatalf("%d lies events recorded, want 3", liesEvents)
	}
}

// TestSessionWorkerParity: a fixed mutation sequence must produce
// bit-identical results for any worker count (the repo's determinism
// contract extended to the online controller).
func TestSessionWorkerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity sweep in -short mode")
	}
	run := func(workers int) (float64, *Session) {
		cfg := testCfg()
		cfg.OptIters = 80
		cfg.AdvIters = 2
		cfg.Workers = workers
		s, base := newNSFSession(t, cfg)
		if _, err := s.UpdateBounds(demand.MarginBox(base.Clone().Scale(1.2), 2.5)); err != nil {
			t.Fatal(err)
		}
		// The second update's carry batch starts from the basis the
		// first update's batches published.
		if _, err := s.UpdateBounds(demand.MarginBox(base.Clone().Scale(0.9), 2.2)); err != nil {
			t.Fatal(err)
		}
		link := s.Base().Links()[2]
		if _, err := s.Fail(link); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recover(link); err != nil {
			t.Fatal(err)
		}
		return s.Perf(), s
	}
	perf1, s1 := run(1)
	perf4, s4 := run(4)
	if perf1 != perf4 {
		t.Fatalf("PERF differs across worker counts: %v vs %v", perf1, perf4)
	}
	r1, r4 := s1.Routing(), s4.Routing()
	for dst := range r1.Phi {
		for e := range r1.Phi[dst] {
			if r1.Phi[dst][e] != r4.Phi[dst][e] {
				t.Fatalf("Phi[%d][%d] differs: %v vs %v", dst, e, r1.Phi[dst][e], r4.Phi[dst][e])
			}
		}
	}
}

func TestSubscribe(t *testing.T) {
	s, base := newNSFSession(t, testCfg())
	ch, cancel := s.Subscribe()
	defer cancel()
	if _, err := s.UpdateBounds(demand.MarginBox(base.Clone().Scale(1.1), 2)); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-ch:
		if e.Kind != EventUpdate {
			t.Fatalf("subscriber got %q, want update", e.Kind)
		}
	default:
		t.Fatal("subscriber received no event")
	}
	cancel() // double-cancel must be safe
}

func TestBadInputs(t *testing.T) {
	s, _ := newNSFSession(t, testCfg())
	if _, err := s.UpdateBounds(nil); err == nil {
		t.Fatal("nil bounds accepted")
	}
	if _, err := s.UpdateBounds(demand.MarginBox(demand.NewMatrix(3), 2)); err == nil {
		t.Fatal("mis-sized bounds accepted")
	}
	if _, err := s.Fail(-1); err == nil {
		t.Fatal("negative link accepted")
	}
	if _, err := s.Fail(10_000); err == nil {
		t.Fatal("out-of-range link accepted")
	}
}

// TestBasisCarriesThroughUpdateBounds asserts the tentpole's third warm
// channel: the exact OPTDAG solver's optimal basis lives in the shared
// evaluator cache and rides WithBox through demand updates, so the fresh
// normalizations of an updated box warm-start from the previous epoch's
// vertex. The counters are process-global, so this test must not run in
// parallel with others that reset them.
func TestBasisCarriesThroughUpdateBounds(t *testing.T) {
	s, base := newNSFSession(t, testCfg())
	lp.ResetGlobalStats()
	if _, err := s.UpdateBounds(demand.MarginBox(base.Clone().Scale(1.2), 2.1)); err != nil {
		t.Fatal(err)
	}
	st := lp.GlobalStats()
	if st.Solves == 0 {
		t.Fatal("no exact LP solves during UpdateBounds; is NSF above ExactNodeLimit?")
	}
	if st.WarmAttempts == 0 {
		t.Fatal("no warm-start attempts: the basis did not carry through WithBox")
	}
	if st.WarmHits == 0 {
		t.Fatalf("basis carried but never accepted (attempts %d)", st.WarmAttempts)
	}
	if st.DenseFallbacks != 0 {
		t.Fatalf("%d dense fallbacks during a session update", st.DenseFallbacks)
	}
	// Dual-restart accounting must stay coherent with the warm channel: the
	// dual phase only ever runs on an accepted warm basis, and a verdict
	// implies an attempt. (Whether it fires at all depends on how far the
	// box moved the carried vertex.)
	if st.DualAttempts > st.WarmHits {
		t.Fatalf("dual attempts %d exceed warm hits %d", st.DualAttempts, st.WarmHits)
	}
	if st.DualHits > st.DualAttempts {
		t.Fatalf("dual hits %d exceed attempts %d", st.DualHits, st.DualAttempts)
	}
	if st.DualIterations > 0 && st.DualAttempts == 0 {
		t.Fatalf("%d dual iterations recorded without a dual attempt", st.DualIterations)
	}
	t.Logf("update: %d solves, warm %d/%d, dual %d/%d (%d pivots)",
		st.Solves, st.WarmHits, st.WarmAttempts, st.DualHits, st.DualAttempts, st.DualIterations)
}

// TestDualRepairsScaledBoxUpdate forces the dual channel inside a session:
// a pure demand rescale is a bound/RHS-only drift, so carrying the basis
// into the scaled box must repair primal infeasibility via the dual
// simplex rather than re-running phase 1 from scratch.
func TestDualRepairsScaledBoxUpdate(t *testing.T) {
	s, base := newNSFSession(t, testCfg())
	var totalDualHits uint64
	for i, scale := range []float64{1.6, 0.55, 2.2} {
		lp.ResetGlobalStats()
		if _, err := s.UpdateBounds(demand.MarginBox(base.Clone().Scale(scale), 2)); err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		st := lp.GlobalStats()
		if i > 0 && st.WarmHits == 0 {
			t.Fatalf("scale %g: warm basis not carried", scale)
		}
		if st.Phase1Iterations > 0 && st.DualAttempts == 0 && st.WarmHits > 0 {
			t.Logf("scale %g: phase 1 ran on a warm solve without a dual attempt "+
				"(%d iters) — auto trigger declined the basis", scale, st.Phase1Iterations)
		}
		totalDualHits += st.DualHits
		t.Logf("scale %g: warm %d/%d, dual %d/%d (%d dual pivots, %d phase-1)",
			scale, st.WarmHits, st.WarmAttempts, st.DualHits, st.DualAttempts,
			st.DualIterations, st.Phase1Iterations)
	}
	if totalDualHits == 0 {
		t.Fatal("dual simplex never repaired a scaled-box update; the dual-restart trigger is dead in sessions")
	}
}

// TestSessionDriftStaysDual guards the warm chain of a drifting session: a
// diurnal box update only moves the OPTDAG right-hand sides, so once the
// shared basis is warm every normalization is a dual-simplex repair, and
// phase 1 must stay a rounding error of the LP work. A dual bail must not
// leak into the shared basis, where its stall mark would switch the dual
// phase off for the rest of the session. The counters are process-global,
// so this test must not run in parallel with others that reset them.
func TestSessionDriftStaysDual(t *testing.T) {
	s, base := newNSFSession(t, testCfg())
	steps := scen.TimeOfDay(demand.MarginBox(base, 2), 6, 0.1, 3)
	for i, D := range steps {
		if i == 1 {
			lp.ResetGlobalStats()
		}
		if _, err := s.UpdateBounds(demand.MarginBox(D, 2)); err != nil {
			t.Fatalf("update %d: %v", i+1, err)
		}
	}
	st := lp.GlobalStats()
	t.Logf("updates 2-6: %d solves, %d iterations, %d phase-1, dual %d/%d",
		st.Solves, st.Iterations, st.Phase1Iterations, st.DualHits, st.DualAttempts)
	if st.DualAttempts == 0 {
		t.Fatal("no dual attempts over updates 2-6: the shared basis carries a stall mark")
	}
	if st.Iterations == 0 || float64(st.Phase1Iterations) > 0.05*float64(st.Iterations) {
		t.Fatalf("phase 1 ran %d of %d iterations over updates 2-6, want ≤ 5%%",
			st.Phase1Iterations, st.Iterations)
	}
}
