// Package serve wraps a delta.Session behind an HTTP/JSON API — the
// long-running controller face of the online TE subsystem (DESIGN.md §6).
//
// Endpoints:
//
//	GET  /state     current topology, failed links, PERF/ECMP, event count
//	GET  /routing   per-destination splitting ratios of the live routing
//	GET  /lies      synthesize lies for the current configuration; reports
//	                the LSA diff vs the previously emitted set (?extra=N
//	                tunes virtual next-hops per interface, default 3)
//	GET  /stats     the full event log (recompute cost, warm/cold, churn)
//	GET  /events    Server-Sent Events stream of session events
//	GET  /metrics   Prometheus text exposition of the obs.Default registry
//	                (lp solver, session, par pool, sweep, HTTP families)
//	POST /update    demand-box update: {"scale":1.2} scales the current
//	                bounds; {"margin":2,"entries":[{"from":"a","to":"b",
//	                "rate":1.5},...]} rebuilds them around an explicit base
//	POST /fail      {"from":"a","to":"b"} fails the named link
//	POST /recover   {"from":"a","to":"b"} recovers it
//
// The fleet control room (DESIGN.md §11) is always on:
//
//	GET  /dashboard        embedded zero-dependency HTML control room
//	GET  /metrics.json     registry snapshot as JSON with histogram
//	                       quantile estimates (the dashboard's feed)
//	GET  /logtail          recent structured log records
//	GET  /fleet            sharded-campaign status: per-shard progress,
//	                       ETA, straggler flags
//	GET  /fleet/results    the incrementally merged campaign as JSONL
//	GET  /fleet/events     SSE stream of heartbeat/merge updates
//	POST /fleet/heartbeat  worker progress report
//	POST /fleet/results    completed unit results, merged as they arrive
//
// With EnableSweep, the server additionally exposes the corpus-scale
// sweep harness (internal/sweep, DESIGN.md §8):
//
//	GET  /sweep     campaign status: units, cached count, run counters
//	POST /sweep     run the campaign through the content-addressed result
//	                cache and return the report
//
// Mutations recompute synchronously and return the resulting event, so a
// client sees the post-transition PERF in the response; a mutation body
// over 1 MiB is refused with 413. The controller
// inherits the repo's determinism contract: for a fixed seed and mutation
// sequence, results are bit-identical for any worker count.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/coyote-te/coyote/internal/delta"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/obs"
)

// Server exposes one Session over HTTP.
type Server struct {
	ses   *delta.Session
	mux   *http.ServeMux
	fleet *fleetState
}

// New wraps a session.
func New(ses *delta.Session) *Server {
	s := &Server{ses: ses, mux: http.NewServeMux(), fleet: newFleetState()}
	s.mux.HandleFunc("GET /state", s.handleState)
	s.mux.HandleFunc("GET /routing", s.handleRouting)
	s.mux.HandleFunc("GET /lies", s.handleLies)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	s.mux.Handle("GET /metrics", obs.Default.Handler())
	s.mux.Handle("GET /metrics.json", obs.Default.JSONHandler())
	s.mux.Handle("GET /logtail", obs.LogTailHandler())
	s.mux.Handle("GET /dashboard", obs.DashboardHandler())
	s.mux.HandleFunc("POST /update", s.handleUpdate)
	s.mux.HandleFunc("POST /fail", s.handleFail)
	s.mux.HandleFunc("POST /recover", s.handleRecover)
	s.mux.HandleFunc("GET /fleet", s.handleFleet)
	s.mux.HandleFunc("GET /fleet/results", s.handleFleetDownload)
	s.mux.HandleFunc("GET /fleet/events", s.handleFleetEvents)
	s.mux.HandleFunc("POST /fleet/heartbeat", s.handleFleetHeartbeat)
	s.mux.HandleFunc("POST /fleet/results", s.handleFleetResults)
	return s
}

// Handler returns the route table, wrapped with request-count/latency
// instrumentation (coyote_http_* — labeled by route pattern, not raw URL,
// so cardinality stays bounded).
func (s *Server) Handler() http.Handler { return obs.InstrumentHTTP(s.mux) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// linkJSON is one physical link of the state report.
type linkJSON struct {
	From     string  `json:"from"`
	To       string  `json:"to"`
	Capacity float64 `json:"capacity"`
	Weight   float64 `json:"weight"`
	Failed   bool    `json:"failed"`
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	base := s.ses.Base()
	failed := make(map[graph.EdgeID]bool)
	for _, id := range s.ses.FailedLinks() {
		failed[id] = true
	}
	links := make([]linkJSON, 0, len(base.Links()))
	for _, id := range base.Links() {
		e := base.Edge(id)
		links = append(links, linkJSON{
			From:     base.Name(e.From),
			To:       base.Name(e.To),
			Capacity: e.Capacity,
			Weight:   e.Weight,
			Failed:   failed[id],
		})
	}
	cur := s.ses.Graph()
	writeJSON(w, http.StatusOK, map[string]any{
		"nodes":          base.NumNodes(),
		"links":          links,
		"failed":         len(failed),
		"live_edges":     cur.NumEdges(),
		"perf":           s.ses.Perf(),
		"ecmp_perf":      s.ses.ECMPPerf(),
		"event_count":    len(s.ses.Events()),
		"dropped_events": s.ses.Dropped(),
	})
}

// ratioJSON is one splitting-ratio entry of the routing report.
type ratioJSON struct {
	From  string  `json:"from"`
	To    string  `json:"to"`
	Ratio float64 `json:"ratio"`
}

func (s *Server) handleRouting(w http.ResponseWriter, r *http.Request) {
	routing := s.ses.Routing()
	g := routing.G
	out := make(map[string][]ratioJSON, g.NumNodes())
	for t := range routing.Phi {
		var entries []ratioJSON
		for e, phi := range routing.Phi[t] {
			if phi <= 0 {
				continue
			}
			edge := g.Edge(graph.EdgeID(e))
			entries = append(entries, ratioJSON{
				From:  g.Name(edge.From),
				To:    g.Name(edge.To),
				Ratio: phi,
			})
		}
		out[g.Name(graph.NodeID(t))] = entries
	}
	writeJSON(w, http.StatusOK, map[string]any{"destinations": out})
}

func (s *Server) handleLies(w http.ResponseWriter, r *http.Request) {
	extra := 3
	if v := r.URL.Query().Get("extra"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad extra %q", v))
			return
		}
		extra = n
	}
	res, err := s.ses.Lies(extra)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"fake_nodes":        res.FakeNodes,
		"virtual_links":     res.VirtualLinks,
		"lied_destinations": res.LiedDestinations,
		"churn": map[string]int{
			"added":   len(res.Diff.Add),
			"removed": len(res.Diff.Remove),
			"updated": len(res.Diff.Update),
			"total":   res.Diff.Churn(),
		},
		"messages": res.Synthesis.Messages(s.ses.Graph()),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"events": s.ses.Events()})
}

// handleEvents streams session events as Server-Sent Events until the
// client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	ch, cancel := s.ses.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-ch:
			if !ok {
				return
			}
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Kind, data)
			fl.Flush()
		}
	}
}

// updateRequest is the body of POST /update. Exactly one of Scale or
// Entries must be provided.
type updateRequest struct {
	// Scale multiplies both bounds of the current box (demand growth).
	Scale float64 `json:"scale,omitempty"`
	// Entries, with Margin, rebuild the box around an explicit base
	// matrix: every listed pair gets [rate/margin, rate·margin]; unlisted
	// pairs drop to zero.
	Margin  float64 `json:"margin,omitempty"`
	Entries []struct {
		From string  `json:"from"`
		To   string  `json:"to"`
		Rate float64 `json:"rate"`
	} `json:"entries,omitempty"`
}

// maxBodyBytes caps a session mutation's request body. An NSF drift
// update with explicit entries is about 10 KB; a body past the cap is
// refused with 413 before it is buffered.
const maxBodyBytes = 1 << 20

// decodeBody decodes a mutation's JSON body of at most maxBodyBytes into v.
// On failure it writes the error response (413 past the cap, 400
// otherwise) and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooLarge.Limit))
	} else {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	}
	return false
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Scale != 0 && len(req.Entries) > 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf(`provide either "scale" or "entries", not both`))
		return
	}
	var box *demand.Box
	switch {
	case len(req.Entries) == 0 && req.Scale != 0:
		if req.Scale < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("scale %g must be positive", req.Scale))
			return
		}
		cur := s.ses.Bounds()
		box = demand.NewBox(cur.Min.Clone().Scale(req.Scale), cur.Max.Clone().Scale(req.Scale))
	case len(req.Entries) > 0:
		margin := req.Margin
		if margin == 0 {
			margin = 2
		}
		if margin < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("margin %g < 1", margin))
			return
		}
		g := s.ses.Base()
		base := demand.NewMatrix(g.NumNodes())
		for _, en := range req.Entries {
			from, ok := g.NodeByName(en.From)
			if !ok {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown node %q", en.From))
				return
			}
			to, ok := g.NodeByName(en.To)
			if !ok {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown node %q", en.To))
				return
			}
			if from == to || en.Rate < 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad entry %s→%s rate %g", en.From, en.To, en.Rate))
				return
			}
			base.Set(from, to, base.At(from, to)+en.Rate)
		}
		box = demand.MarginBox(base, margin)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf(`provide "scale" or "entries"`))
		return
	}
	ev, err := s.ses.UpdateBounds(box)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ev)
}

// linkRequest names a physical link by its endpoints.
type linkRequest struct {
	From string `json:"from"`
	To   string `json:"to"`
}

func (s *Server) resolveLink(req linkRequest) (graph.EdgeID, error) {
	g := s.ses.Base()
	from, ok := g.NodeByName(req.From)
	if !ok {
		return 0, fmt.Errorf("unknown node %q", req.From)
	}
	to, ok := g.NodeByName(req.To)
	if !ok {
		return 0, fmt.Errorf("unknown node %q", req.To)
	}
	if id, ok := g.FindEdge(from, to); ok {
		return id, nil
	}
	if id, ok := g.FindEdge(to, from); ok {
		return id, nil
	}
	return 0, fmt.Errorf("no link %s–%s", req.From, req.To)
}

func (s *Server) handleLinkMutation(w http.ResponseWriter, r *http.Request,
	apply func(graph.EdgeID) (delta.Event, error)) {
	var req linkRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id, err := s.resolveLink(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ev, err := apply(id)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, ev)
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	s.handleLinkMutation(w, r, s.ses.Fail)
}

func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	s.handleLinkMutation(w, r, s.ses.Recover)
}
