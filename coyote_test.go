package coyote

import (
	"errors"
	"math"
	"testing"

	"github.com/coyote-te/coyote/internal/demand"
)

// runningExample builds the paper's Fig. 1a topology.
func runningExample(t *testing.T) (*Topology, map[string]NodeID) {
	t.Helper()
	topo := NewTopology()
	ids := map[string]NodeID{
		"s1": topo.AddNode("s1"),
		"s2": topo.AddNode("s2"),
		"v":  topo.AddNode("v"),
		"t":  topo.AddNode("t"),
	}
	topo.AddLink(ids["s1"], ids["s2"], 1, 1)
	topo.AddLink(ids["s1"], ids["v"], 1, 1)
	topo.AddLink(ids["s2"], ids["v"], 1, 1)
	topo.AddLink(ids["s2"], ids["t"], 1, 1)
	topo.AddLink(ids["v"], ids["t"], 1, 1)
	return topo, ids
}

func TestComputeRunningExample(t *testing.T) {
	topo, ids := runningExample(t)
	base := NewDemandMatrix(topo)
	base.Set(ids["s1"], ids["t"], 1)
	base.Set(ids["s2"], ids["t"], 1)
	bounds := MarginBounds(base, 2)
	cfg, err := New(topo, bounds, Options{OptimizerIters: 400, AdversarialIters: 3, Seed: 1}).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Perf > cfg.ECMPPerf+1e-9 {
		t.Fatalf("COYOTE PERF %g worse than ECMP %g", cfg.Perf, cfg.ECMPPerf)
	}
	if err := cfg.Routing.Validate(); err != nil {
		t.Fatalf("invalid routing: %v", err)
	}
	if cfg.Perf <= 0 || math.IsInf(cfg.Perf, 0) {
		t.Fatalf("implausible PERF %g", cfg.Perf)
	}
}

func TestComputeRejectsDisconnected(t *testing.T) {
	topo := NewTopology()
	topo.AddNode("a")
	topo.AddNode("b")
	base := NewDemandMatrix(topo)
	if _, err := New(topo, MarginBounds(base, 1)).Compute(); err == nil {
		t.Fatal("disconnected topology must be rejected")
	}
}

func TestComputeNilBounds(t *testing.T) {
	topo, _ := runningExample(t)
	if _, err := New(topo, nil).Compute(); err == nil {
		t.Fatal("nil bounds must be rejected")
	}
}

// TestComputeRejectsInvalidBounds covers boxes that used to yield
// Perf = −Inf with a nil error (all-zero and infinite demand) or panic in
// the evaluator (another topology's dimensions).
func TestComputeRejectsInvalidBounds(t *testing.T) {
	abilene, err := LoadTopology("Abilene")
	if err != nil {
		t.Fatal(err)
	}
	nsf, err := LoadTopology("NSF")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		bounds *Bounds
	}{
		{"zero", MarginBounds(GravityDemands(abilene, 0), 2)},
		{"infinite", MarginBounds(GravityDemands(abilene, math.Inf(1)), 2)},
		{"other-topology", MarginBounds(GravityDemands(nsf, 1), 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := New(abilene, tc.bounds, Options{OptimizerIters: 1, AdversarialIters: 1}).Compute()
			if !errors.Is(err, demand.ErrInvalidBox) {
				t.Fatalf("Compute = (%v, %v), want an error wrapping demand.ErrInvalidBox", cfg, err)
			}
		})
	}
}

func TestLiesEndToEnd(t *testing.T) {
	topo, ids := runningExample(t)
	base := NewDemandMatrix(topo)
	base.Set(ids["s1"], ids["t"], 1)
	base.Set(ids["s2"], ids["t"], 1)
	cfg, err := New(topo, MarginBounds(base, 2), Options{OptimizerIters: 300, AdversarialIters: 2, Seed: 1}).Compute()
	if err != nil {
		t.Fatal(err)
	}
	lies, err := cfg.Lies(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := lies.Quantized.Validate(); err != nil {
		t.Fatalf("quantized routing invalid: %v", err)
	}
	// Verified synthesis is part of Lies; reaching here means the LSDB
	// reproduces the quantized routing.
	if lies.FakeNodes < 0 || lies.VirtualLinks < 0 {
		t.Fatal("negative lie counts")
	}
}

func TestGravityDemands(t *testing.T) {
	topo, _ := runningExample(t)
	m := GravityDemands(topo, 1)
	if m.MaxEntry() != 1 {
		t.Fatalf("peak = %g, want 1", m.MaxEntry())
	}
}

func TestObliviousBounds(t *testing.T) {
	topo, _ := runningExample(t)
	b := ObliviousBounds(topo, 5)
	if b.Min.Total() != 0 {
		t.Fatal("oblivious bounds must have zero lower bounds")
	}
}

func TestLocalSearchOption(t *testing.T) {
	topo, ids := runningExample(t)
	base := NewDemandMatrix(topo)
	base.Set(ids["s1"], ids["t"], 1)
	cfg, err := New(topo, MarginBounds(base, 2), Options{
		OptimizerIters: 150, AdversarialIters: 2, LocalSearchWeights: true, Seed: 1,
	}).Compute()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Weights) != topo.NumLinks() {
		t.Fatalf("%d weights, want %d", len(cfg.Weights), topo.NumLinks())
	}
}

func TestLoadTopologyCorpus(t *testing.T) {
	names := TopologyNames()
	if len(names) != 16 {
		t.Fatalf("%d corpus topologies, want 16", len(names))
	}
	topo, err := LoadTopology("Abilene")
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 12 {
		t.Fatalf("Abilene has %d nodes, want 12", topo.NumNodes())
	}
	if _, err := LoadTopology("nope"); err == nil {
		t.Fatal("unknown topology must error")
	}
}
