package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/coyote-te/coyote"
	"github.com/coyote-te/coyote/internal/dagx"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/exp"
	"github.com/coyote-te/coyote/internal/fibbing"
	"github.com/coyote-te/coyote/internal/gpopt"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/oblivious"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/topo"
	"github.com/coyote-te/coyote/internal/wcmp"
)

// coldTopologies is one cold-corpus pass, in op order. ATT is left out:
// its multi-second, phase-1-dominated compute would swamp the pass.
var coldTopologies = []string{"Geant", "BICS", "Germany", "NSF", "Abilene"}

// perfEps is how far below 1 a reported Perf may fall: the FPTAS
// normalization on larger networks is (1+ε)-approximate.
const perfEps = 1e-9

// coldCorpus: each op is a cold Compute at exp.Quick effort on a gravity
// margin-2 box, followed by Config.Lies(3). The workload seed derives each
// op's Options.Seed.
type coldCorpus struct {
	seed   int64
	effort exp.Config
	cells  []coldCell
	traced bool
	// ref holds the untraced Compute outputs by op index; the traced
	// stage-by-stage decomposition must reproduce them bit for bit.
	ref map[int]coldOut
}

type coldCell struct {
	name  string
	topo  *coyote.Topology
	bound *coyote.Bounds
	// g and box are the same network and box as internal types, for the
	// traced decomposition.
	g   *graph.Graph
	box *demand.Box
}

type coldOut struct {
	perf, ecmp              float64
	fakes, virtual, liedDst int
}

func newColdCorpus(seed int64) (workload, error) {
	return &coldCorpus{seed: seed, effort: exp.Quick(), ref: make(map[int]coldOut)}, nil
}

func (c *coldCorpus) setup(tr *obs.Tracer) error {
	c.traced = tr != nil
	c.cells = c.cells[:0]
	for _, name := range coldTopologies {
		t, err := coyote.LoadTopology(name)
		if err != nil {
			return err
		}
		cell := coldCell{name: name, topo: t, bound: coyote.MarginBounds(coyote.GravityDemands(t, 1), 2)}
		if c.traced {
			if cell.g, err = topo.Load(name); err != nil {
				return err
			}
			cell.box = demand.MarginBox(demand.Gravity(cell.g, 1), 2)
		}
		c.cells = append(c.cells, cell)
	}
	return nil
}

func (c *coldCorpus) close() {}

// opSeed derives the k-th seed from the workload seed (splitmix64): each
// cold op's Options.Seed, each drift day's jitter seed.
func opSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func (c *coldCorpus) options(seed int64) coyote.Options {
	return coyote.Options{
		OptimizerIters:   c.effort.OptIters,
		AdversarialIters: c.effort.AdvIters,
		Samples:          c.effort.Samples,
		Eps:              c.effort.Eps,
		Seed:             seed,
	}
}

func (c *coldCorpus) pass(ctx context.Context, p int, rec *recorder) {
	for i, cell := range c.cells {
		k := p*len(c.cells) + i
		seed := opSeed(c.seed, k)
		var out coldOut
		var err error
		t0 := time.Now()
		if c.traced {
			out, err = c.decomposed(ctx, cell, seed, k, rec)
		} else {
			out, err = c.compute(cell, seed, rec)
		}
		d := time.Since(t0)
		if err == nil {
			err = checkPerf(out.perf, out.ecmp)
		}
		if err == nil && c.traced {
			err = c.matchRef(cell, seed, k, out)
		} else if err == nil {
			c.ref[k] = out
		}
		if err != nil {
			err = fmt.Errorf("%s op %d: %w", cell.name, k, err)
		}
		rec.op(d, err)
		rec.latency("op_"+cell.name, d)
		rec.digestOf(cell.name, out.perf, out.ecmp, out.fakes, out.virtual, out.liedDst)
	}
}

// compute is the op as a user runs it: the public Engine and Config API.
func (c *coldCorpus) compute(cell coldCell, seed int64, rec *recorder) (coldOut, error) {
	t0 := time.Now()
	cfg, err := coyote.New(cell.topo, cell.bound, c.options(seed)).Compute()
	if err != nil {
		return coldOut{}, err
	}
	t1 := time.Now()
	rec.latency("compute", t1.Sub(t0))
	lies, err := cfg.Lies(3)
	if err != nil {
		return coldOut{}, err
	}
	rec.latency("lies", time.Since(t1))
	return coldOut{cfg.Perf, cfg.ECMPPerf, lies.FakeNodes, lies.VirtualLinks, lies.LiedDestinations}, nil
}

// decomposed runs the same op stage by stage through the layers' public
// functions, in the order and with the options coyote.go uses, with one
// span per stage under a per-op span.
func (c *coldCorpus) decomposed(ctx context.Context, cell coldCell, seed int64, k int, rec *recorder) (coldOut, error) {
	ctx, op := obs.StartSpan(ctx, "bench.op")
	op.Attr("op", k).Attr("topology", cell.name)
	defer op.End()
	g := cell.g

	t0 := time.Now()
	_, sp := obs.StartSpan(ctx, "bench.dagx.build_all")
	dags := dagx.BuildAll(g, dagx.Augmented)
	sp.End()
	rec.add("dagx.build_s", time.Since(t0).Seconds())

	evalCfg := oblivious.EvalConfig{Eps: c.effort.Eps, Samples: c.effort.Samples, Seed: seed}
	_, sp = obs.StartSpan(ctx, "bench.oblivious.new_evaluator")
	ev := oblivious.NewEvaluator(g, dags, cell.box, evalCfg)
	sp.End()
	octx, sp := obs.StartSpan(ctx, "bench.oblivious.optimize")
	routing, rep := oblivious.OptimizeWithEvaluator(g, dags, ev, oblivious.Options{
		Optimizer: gpopt.Config{Iters: c.effort.OptIters},
		Eval:      evalCfg,
		AdvIters:  c.effort.AdvIters,
		Ctx:       octx,
	})
	sp.End()
	rec.latency("compute", time.Since(t0))

	t1 := time.Now()
	_, sp = obs.StartSpan(ctx, "bench.wcmp.apply")
	q, err := wcmp.Apply(routing, 3)
	sp.End()
	if err != nil {
		return coldOut{}, err
	}
	_, sp = obs.StartSpan(ctx, "bench.fibbing.synthesize")
	syn, err := fibbing.Synthesize(g, q)
	sp.End()
	if err != nil {
		return coldOut{}, err
	}
	_, sp = obs.StartSpan(ctx, "bench.fibbing.verify")
	err = fibbing.Verify(g, q, syn)
	sp.End()
	if err != nil {
		return coldOut{}, fmt.Errorf("lie verification failed: %w", err)
	}
	lies := time.Since(t1)
	rec.latency("lies", lies)
	rec.add("lies.synth_s", lies.Seconds())
	rec.add("lies.fake_nodes", float64(syn.FakeNodes))
	return coldOut{rep.Perf.Ratio, rep.ECMPPerf, syn.FakeNodes, q.VirtualLinks, len(syn.LiedDestinations)}, nil
}

// matchRef checks a traced op against the untraced Compute of the same
// cell and seed, computing the reference now if the untraced phase did
// not reach this op.
func (c *coldCorpus) matchRef(cell coldCell, seed int64, k int, got coldOut) error {
	want, ok := c.ref[k]
	if !ok {
		var err error
		if want, err = c.compute(cell, seed, newRecorder()); err != nil {
			return err
		}
		c.ref[k] = want
	}
	if math.Float64bits(got.perf) != math.Float64bits(want.perf) ||
		math.Float64bits(got.ecmp) != math.Float64bits(want.ecmp) ||
		got.fakes != want.fakes || got.virtual != want.virtual || got.liedDst != want.liedDst {
		return fmt.Errorf("%w: decomposition %+v != Compute %+v", errCheck, got, want)
	}
	return nil
}

func (c *coldCorpus) layers(lm layerMetrics, _ []obs.SpanRecord, ph phase) {
	rec := ph.rec
	ops := float64(len(rec.ops))
	lm["dagx.build_s"] = rec.sums["dagx.build_s"] / ops
	lm["lies.synth_s"] = rec.sums["lies.synth_s"] / ops
	lm["lies.fake_nodes"] = rec.sums["lies.fake_nodes"] / ops
}

// checkPerf is the per-result check: a finite Perf in [1−ε, ECMPPerf].
func checkPerf(perf, ecmp float64) error {
	if math.IsNaN(perf) || math.IsInf(perf, 0) || perf < 1-perfEps || perf > ecmp {
		return fmt.Errorf("%w: Perf %v outside [1-ε, ECMPPerf %v]", errCheck, perf, ecmp)
	}
	return nil
}
