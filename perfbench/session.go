package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"github.com/coyote-te/coyote/internal/delta"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/exp"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/serve"
	"github.com/coyote-te/coyote/internal/spf"
	"github.com/coyote-te/coyote/internal/topo"
)

// sessionTopology is the network both session workloads run on.
const sessionTopology = "NSF"

// The drift input is driftDays diurnal days of driftDay steps each, every
// day drawn with its own jitter seed, so no box repeats and every update
// misses the OPTDAG memo. The 192 steps are about four times what a 20 s
// run uses on the reference host. driftPassSteps steps make one pass.
const (
	driftDay       = 24
	driftDays      = 8
	driftPassSteps = 8
	driftJitter    = 0.1
)

// sessionBench is an NSF controller built the way `coyote-serve -topo NSF
// -quick [-failover]` builds it, served by the internal/serve handler on a
// 127.0.0.1 listener (so requests cross loopback, not a real link) and
// driven by one closed-loop HTTP client.
type sessionBench struct {
	failover bool

	// Inputs generated from the workload seed.
	updates [][]byte     // drift: POST /update bodies, one per step
	links   []link       // failover: non-partitioning links, seeded order
	g       *graph.Graph // intact topology, for the SPF replay

	srv    *http.Server
	served chan error
	url    string
	client *http.Client

	events []linkEvent // failover link events since set-up, for the SPF replay
}

// link is one non-partitioning link: its request body and, for the SPF
// replay, its edge in the intact topology.
type link struct {
	name string
	body []byte
	id   graph.EdgeID
}

type linkEvent struct {
	id   graph.EdgeID
	fail bool
}

// eventJSON is the part of a session event response the benchmark reads.
type eventJSON struct {
	Kind       string  `json:"kind"`
	Warm       bool    `json:"warm"`
	Perf       float64 `json:"perf"`
	ECMPPerf   float64 `json:"ecmp_perf"`
	OuterIters int     `json:"outer_iters"`
	Scenarios  int     `json:"scenarios"`
	ElapsedNS  int64   `json:"elapsed_ns"`
}

// liesJSON is the part of a GET /lies response the benchmark reads.
type liesJSON struct {
	FakeNodes        int `json:"fake_nodes"`
	VirtualLinks     int `json:"virtual_links"`
	LiedDestinations int `json:"lied_destinations"`
	Churn            struct {
		Total int `json:"total"`
	} `json:"churn"`
}

// sessionBase is the session's topology and initial box: gravity base
// matrix, margin 2 (coyote-serve's defaults).
func sessionBase() (*graph.Graph, *demand.Box, error) {
	g, err := topo.Load(sessionTopology)
	if err != nil {
		return nil, nil, err
	}
	base, err := scen.BaseMatrix(g, "gravity", 1, 1)
	if err != nil {
		return nil, nil, err
	}
	return g, demand.MarginBox(base, 2), nil
}

func newSessionDrift(seed int64) (workload, error) {
	s := &sessionBench{}
	g, box, err := sessionBase()
	if err != nil {
		return nil, err
	}
	type entry struct {
		From string  `json:"from"`
		To   string  `json:"to"`
		Rate float64 `json:"rate"`
	}
	var steps []*demand.Matrix
	for d := 0; d < driftDays; d++ {
		steps = append(steps, scen.TimeOfDay(box, driftDay, driftJitter, opSeed(seed, d))...)
	}
	for _, m := range steps {
		req := struct {
			Margin  float64 `json:"margin"`
			Entries []entry `json:"entries"`
		}{Margin: 2}
		for a := 0; a < m.N; a++ {
			for b := 0; b < m.N; b++ {
				if v := m.At(graph.NodeID(a), graph.NodeID(b)); a != b && v > 0 {
					req.Entries = append(req.Entries, entry{g.Name(graph.NodeID(a)), g.Name(graph.NodeID(b)), v})
				}
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		s.updates = append(s.updates, body)
	}
	return s, nil
}

func newSessionFailover(seed int64) (workload, error) {
	g, _, err := sessionBase()
	if err != nil {
		return nil, err
	}
	s := &sessionBench{failover: true, g: g}
	var links []link
	for _, id := range g.Links() {
		if !g.WithoutLink(id).Connected() {
			continue
		}
		e := g.Edge(id)
		from, to := g.Name(e.From), g.Name(e.To)
		body, err := json.Marshal(map[string]string{"from": from, "to": to})
		if err != nil {
			return nil, err
		}
		links = append(links, link{from + "-" + to, body, id})
	}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(links)) {
		s.links = append(s.links, links[i])
	}
	return s, nil
}

func (s *sessionBench) setup(tr *obs.Tracer) error {
	g, box, err := sessionBase()
	if err != nil {
		return err
	}
	effort := exp.Quick()
	ses, err := delta.NewSession(g, box, delta.Config{
		OptIters:           effort.OptIters,
		AdvIters:           effort.AdvIters,
		Samples:            effort.Samples,
		Eps:                effort.Eps,
		Seed:               1,
		PrecomputeFailover: s.failover,
		Tracer:             tr,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.events = nil
	s.srv = &http.Server{Handler: serve.New(ses).Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{}}
	return nil
}

// close stops the server and waits for its serving goroutine to exit.
func (s *sessionBench) close() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	s.srv = nil
}

// do issues one request, decodes a 2xx JSON response into out, and
// reports the round trip and the response size.
func (s *sessionBench) do(ctx context.Context, method, path string, body []byte, out any, rec *recorder) (time.Duration, error) {
	_, sp := obs.StartSpan(ctx, "bench.http")
	sp.Attr("route", method+" "+path)
	defer sp.End()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.url+path, rd)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(t0)
	rec.add("serve.response_bytes", float64(len(data)))
	if err != nil {
		return rt, err
	}
	if resp.StatusCode/100 != 2 {
		return rt, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return rt, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return rt, nil
}

// mutate issues a session mutation and checks and records its event.
func (s *sessionBench) mutate(ctx context.Context, kind, path string, body []byte, rec *recorder) error {
	var ev eventJSON
	rt, err := s.do(ctx, "POST", path, body, &ev, rec)
	rec.latency(kind, rt)
	if err != nil {
		return err
	}
	rec.add("delta.events", 1)
	rec.add("delta.event_s", float64(ev.ElapsedNS)/1e9)
	rec.add("delta.outer_iters", float64(ev.OuterIters))
	rec.add("delta.scenarios", float64(ev.Scenarios))
	if ev.Warm {
		rec.add("delta.warm", 1)
	}
	rec.sample("serve.overhead_s", (rt - time.Duration(ev.ElapsedNS)).Seconds())
	rec.digestOf(ev.Kind, ev.Warm, ev.Perf, ev.ECMPPerf, ev.OuterIters, ev.Scenarios)
	if err := checkPerf(ev.Perf, ev.ECMPPerf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// lies fetches and records GET /lies?extra=3. A 2xx answer means the
// handler verified the synthesis and its diff.
func (s *sessionBench) lies(ctx context.Context, rec *recorder) error {
	var l liesJSON
	rt, err := s.do(ctx, "GET", "/lies?extra=3", nil, &l, rec)
	rec.latency("lies", rt)
	if err != nil {
		return err
	}
	rec.add("lies.calls", 1)
	rec.add("lies.fake_nodes", float64(l.FakeNodes))
	rec.add("lies.churn", float64(l.Churn.Total))
	rec.digestOf(l.FakeNodes, l.VirtualLinks, l.LiedDestinations, l.Churn.Total)
	return nil
}

func (s *sessionBench) pass(ctx context.Context, p int, rec *recorder) {
	if s.failover {
		s.failoverPass(ctx, p, rec)
	} else {
		s.driftPass(ctx, p, rec)
	}
}

// driftPass: each op is POST /update with the next diurnal matrix as
// absolute entries (margin 2), then GET /lies?extra=3.
func (s *sessionBench) driftPass(ctx context.Context, p int, rec *recorder) {
	for j := 0; j < driftPassSteps; j++ {
		k := p*driftPassSteps + j
		octx, op := obs.StartSpan(ctx, "bench.op")
		op.Attr("op", k)
		t0 := time.Now()
		err := s.mutate(octx, "update", "/update", s.updates[k%len(s.updates)], rec)
		if err == nil {
			err = s.lies(octx, rec)
		}
		rec.op(time.Since(t0), err)
		op.End()
	}
}

// failoverPass: each op takes one link through POST /fail, GET /lies,
// POST /recover, GET /lies; a pass covers every non-partitioning link.
func (s *sessionBench) failoverPass(ctx context.Context, p int, rec *recorder) {
	for j, l := range s.links {
		k := p*len(s.links) + j
		octx, op := obs.StartSpan(ctx, "bench.op")
		op.Attr("op", k).Attr("link", l.name)
		t0 := time.Now()
		err := s.mutate(octx, "linkdown", "/fail", l.body, rec)
		if err == nil {
			err = s.lies(octx, rec)
		}
		if err == nil {
			err = s.mutate(octx, "linkup", "/recover", l.body, rec)
		}
		if err == nil {
			err = s.lies(octx, rec)
		}
		rec.op(time.Since(t0), err)
		op.End()
		s.events = append(s.events, linkEvent{l.id, true}, linkEvent{l.id, false})
	}
}

func (s *sessionBench) layers(lm layerMetrics, recs []obs.SpanRecord, ph phase) {
	rec := ph.rec
	ops := float64(len(rec.ops))
	events := rec.sums["delta.events"]
	lm["delta.event_s"] = ratio(rec.sums["delta.event_s"], events)
	lm["delta.warm_ratio"] = ratio(rec.sums["delta.warm"], events)
	lm["delta.outer_iters"] = ratio(rec.sums["delta.outer_iters"], events)
	lm["delta.scenarios"] = ratio(rec.sums["delta.scenarios"], events)
	lm["serve.overhead_s"] = median(rec.samples["serve.overhead_s"])
	lm["serve.response_bytes"] = rec.sums["serve.response_bytes"] / ops
	calls := rec.sums["lies.calls"]
	lm["lies.fake_nodes"] = ratio(rec.sums["lies.fake_nodes"], calls)
	lm["lies.churn"] = ratio(rec.sums["lies.churn"], calls)
	var synth time.Duration
	for _, r := range recs {
		switch r.Name {
		case "session.lies":
			synth += r.Dur
		case "session.failover_plan":
			lm["failover.precompute_s"] = r.Dur.Seconds()
			lm["failover.scenarios"] = attrNum(r, "links")
		}
	}
	lm["lies.synth_s"] = ratio(synth.Seconds(), calls)
	if s.failover && len(s.events) > 0 {
		lm["spf.affected_nodes"] = ph.delta.value("coyote_spf_affected_nodes_sum") / float64(len(s.events))
		lm["spf.repair_s"] = s.replaySPF() / float64(len(s.events))
	}
}

// replaySPF replays the traced loop's link events through one dynamic SPF
// structure per destination of the intact topology and returns the total
// repair time.
func (s *sessionBench) replaySPF() float64 {
	g := s.g
	incs := make([]*spf.Incremental, g.NumNodes())
	for t := range incs {
		incs[t] = spf.NewIncremental(g, graph.NodeID(t))
	}
	var total time.Duration
	for _, ev := range s.events {
		t0 := time.Now()
		for _, inc := range incs {
			if ev.fail {
				inc.FailLink(ev.id)
			} else {
				inc.RecoverLink(ev.id)
			}
		}
		total += time.Since(t0)
	}
	return total.Seconds()
}
