// Command coyote-serve runs the online TE controller: a long-lived COYOTE
// session behind an HTTP/JSON API (internal/serve). Point it at a corpus
// topology, a real topology file (GraphML / SNDlib / text), or a generated
// scenario, then drive it with demand updates and failure events; every
// mutation recomputes incrementally (warm-started optimization,
// critical-matrix carry-over, failover swap-and-refine) and the lie
// endpoint reports reconfiguration churn as minimal LSA diffs.
//
// Usage:
//
//	coyote-serve -topo Geant -margin 2
//	coyote-serve -topo-file Geant.graphml -demand hotspot -addr :8080
//	coyote-serve -gen waxman -n 20 -seed 7 -quick -failover
//
// Then, from another terminal:
//
//	curl localhost:8080/state
//	curl -X POST localhost:8080/update  -d '{"scale":1.3}'
//	curl -X POST localhost:8080/fail    -d '{"from":"v0","to":"v1"}'
//	curl localhost:8080/lies?extra=3
//	curl -X POST localhost:8080/recover -d '{"from":"v0","to":"v1"}'
//	curl localhost:8080/stats
//	curl -N localhost:8080/events        # live SSE stream
//	curl localhost:8080/metrics          # Prometheus text exposition
//	curl localhost:8080/fleet            # sharded-sweep campaign status
//	open http://localhost:8080/dashboard # live HTML control room
//
// The fleet control room (DESIGN.md §11) is always on: coyote-sweep
// workers launched with -controller post heartbeats and result batches
// here, and /fleet, /fleet/results, /fleet/events, and /dashboard expose
// the merged campaign. With -debug-addr a second listener serves the
// debug plane (net/http/pprof profiles, expvar, /metrics, and the same
// /dashboard). SIGINT/SIGTERM shuts down gracefully: in-flight requests
// drain, SSE streams close, and -trace (if set) flushes the recorded
// session span trees to disk.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/coyote-te/coyote/internal/delta"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/exp"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/scen"
	"github.com/coyote-te/coyote/internal/serve"
	"github.com/coyote-te/coyote/internal/sweep"
	"github.com/coyote-te/coyote/internal/topo"
)

// readHeaderTimeout bounds how long a client may take to send request
// headers on both listeners. There is deliberately no WriteTimeout:
// /events and /fleet/events are long-lived SSE streams.
const readHeaderTimeout = 10 * time.Second

func main() {
	topoName := flag.String("topo", "", "corpus topology name (see 'coyote-scen list')")
	topoFile := flag.String("topo-file", "", "topology file (GraphML, SNDlib native, or text)")
	gen := flag.String("gen", "", "generator name (waxman, ba, fattree, grid, ring)")
	n := flag.Int("n", 20, "node count (waxman, ba, ring)")
	k := flag.Int("k", 4, "fat-tree arity")
	rows := flag.Int("rows", 4, "grid rows")
	cols := flag.Int("cols", 5, "grid cols")
	seed := flag.Int64("seed", 1, "generator / optimizer seed")
	model := flag.String("demand", "gravity", "base demand model")
	margin := flag.Float64("margin", 2, "uncertainty margin (≤ 0 for full demand obliviousness)")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	workers := flag.Int("workers", 0, "worker-pool size (0 = one per CPU; results identical for any value)")
	quick := flag.Bool("quick", false, "reduced optimization effort (fast startup)")
	failoverPlan := flag.Bool("failover", false, "precompute per-link failover configurations at startup")
	sweepName := flag.String("sweep", "", "expose the /sweep endpoint for this campaign (golden, quick, full)")
	sweepCache := flag.String("sweep-cache", "", "content-addressed result cache directory for /sweep")
	debugAddr := flag.String("debug-addr", "", "separate listen address for /debug/pprof, /debug/vars, /metrics (off when empty)")
	traceOut := flag.String("trace", "", "write a trace of every session transition to this file on shutdown (.jsonl = span records, else Chrome trace-event JSON)")
	logOut := flag.String("log", "", `structured event log destination (JSONL file, or "-" for stderr)`)
	logLevel := flag.String("log-level", "info", "minimum level for the event log: debug, info, warn, error")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalln("coyote-serve:", err)
	}
	obs.SetLogLevel(level)
	switch *logOut {
	case "":
	case "-":
		obs.SetLogOutput(os.Stderr)
	default:
		lf, err := os.Create(*logOut)
		if err != nil {
			log.Fatalln("coyote-serve:", err)
		}
		defer lf.Close()
		obs.SetLogOutput(lf)
	}

	g, name, err := buildTopology(*topoName, *topoFile, *gen, scen.Params{
		N: *n, K: *k, Rows: *rows, Cols: *cols, Seed: *seed,
	})
	if err != nil {
		log.Fatalln("coyote-serve:", err)
	}

	var box *demand.Box
	if *margin <= 0 {
		box = demand.ObliviousBox(g.NumNodes(), 1)
	} else {
		base, err := scen.BaseMatrix(g, *model, 1, *seed)
		if err != nil {
			log.Fatalln("coyote-serve:", err)
		}
		box = demand.MarginBox(base, *margin)
	}

	effort := exp.Default()
	if *quick {
		effort = exp.Quick()
	}
	cfg := delta.Config{
		OptIters:           effort.OptIters,
		AdvIters:           effort.AdvIters,
		Samples:            effort.Samples,
		Eps:                effort.Eps,
		Seed:               *seed,
		Workers:            *workers,
		PrecomputeFailover: *failoverPlan,
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		cfg.Tracer = tracer
	}

	log.Printf("coyote-serve: computing initial configuration for %s (%d nodes, %d links)...",
		name, g.NumNodes(), len(g.Links()))
	start := time.Now()
	ses, err := delta.NewSession(g, box, cfg)
	if err != nil {
		log.Fatalln("coyote-serve:", err)
	}
	log.Printf("coyote-serve: ready in %v — PERF %.3f (ECMP %.3f)",
		time.Since(start).Round(time.Millisecond), ses.Perf(), ses.ECMPPerf())
	srv := serve.New(ses)
	if *sweepName != "" {
		campaign, err := sweep.Named(*sweepName, "")
		if err != nil {
			log.Fatalln("coyote-serve:", err)
		}
		opts := sweep.Options{Workers: *workers}
		if *sweepCache != "" {
			opts.Cache, err = sweep.Open(*sweepCache)
			if err != nil {
				log.Fatalln("coyote-serve:", err)
			}
		}
		srv.EnableSweep(campaign, opts)
		log.Printf("coyote-serve: /sweep enabled for the %s campaign (%d units, cache %q)",
			campaign.Name, len(campaign.Units), *sweepCache)
	}
	// Graceful shutdown: SIGINT/SIGTERM cancels ctx, which (a) stops the
	// listeners accepting and (b) — because ctx is every request's base
	// context — ends long-lived SSE streams (/events), so Shutdown drains
	// in-flight requests instead of deadlocking on them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugMux(obs.Default),
			BaseContext:       func(net.Listener) context.Context { return ctx },
			ReadHeaderTimeout: readHeaderTimeout,
		}
		go func() {
			log.Printf("coyote-serve: debug plane on %s (/debug/pprof /debug/vars /metrics /dashboard)", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Println("coyote-serve: debug listener:", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		BaseContext:       func(net.Listener) context.Context { return ctx },
		ReadHeaderTimeout: readHeaderTimeout,
	}
	log.Printf("coyote-serve: listening on %s (GET /state /routing /lies /stats /events /metrics /fleet /dashboard; POST /update /fail /recover)", *addr)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatalln("coyote-serve:", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	log.Println("coyote-serve: signal received, shutting down...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Println("coyote-serve: shutdown:", err)
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(shutdownCtx); err != nil {
			log.Println("coyote-serve: debug shutdown:", err)
		}
	}
	if tracer != nil {
		if err := tracer.WriteFile(*traceOut); err != nil {
			log.Println("coyote-serve:", err)
		} else {
			log.Printf("coyote-serve: wrote %d trace spans to %s", tracer.Len(), *traceOut)
		}
	}
}

// buildTopology resolves exactly one of the three topology sources.
func buildTopology(topoName, topoFile, gen string, p scen.Params) (*graph.Graph, string, error) {
	sources := 0
	for _, set := range []bool{topoName != "", topoFile != "", gen != ""} {
		if set {
			sources++
		}
	}
	switch {
	case sources > 1:
		return nil, "", fmt.Errorf("use only one of -topo, -topo-file, -gen")
	case topoName != "":
		g, err := topo.Load(topoName)
		return g, topoName, err
	case topoFile != "":
		g, err := scen.ReadFile(topoFile)
		return g, topoFile, err
	case gen != "":
		g, err := scen.Generate(gen, p)
		return g, fmt.Sprintf("%s-n%d-seed%d", gen, p.N, p.Seed), err
	default:
		fmt.Fprintln(os.Stderr, "coyote-serve: one of -topo, -topo-file, -gen is required")
		flag.Usage()
		os.Exit(2)
		return nil, "", nil
	}
}
