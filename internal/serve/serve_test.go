package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/coyote-te/coyote/internal/delta"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/topo"
)

func newTestServer(t *testing.T) (*httptest.Server, *delta.Session) {
	t.Helper()
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	ses, err := delta.NewSession(g, demand.MarginBox(demand.Gravity(g, 1), 2), delta.Config{
		OptIters: 120,
		AdvIters: 2,
		Samples:  2,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(ses).Handler())
	t.Cleanup(ts.Close)
	return ts, ses
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestStateRoutingStats(t *testing.T) {
	ts, ses := newTestServer(t)

	var state struct {
		Nodes    int     `json:"nodes"`
		Perf     float64 `json:"perf"`
		ECMPPerf float64 `json:"ecmp_perf"`
		Links    []struct {
			Failed bool `json:"failed"`
		} `json:"links"`
	}
	getJSON(t, ts.URL+"/state", &state)
	if state.Nodes != ses.Base().NumNodes() {
		t.Fatalf("state nodes %d, want %d", state.Nodes, ses.Base().NumNodes())
	}
	if state.Perf != ses.Perf() {
		t.Fatalf("state perf %v, want %v", state.Perf, ses.Perf())
	}
	if len(state.Links) != len(ses.Base().Links()) {
		t.Fatalf("state has %d links, want %d", len(state.Links), len(ses.Base().Links()))
	}

	var routing struct {
		Destinations map[string][]struct {
			From  string  `json:"from"`
			Ratio float64 `json:"ratio"`
		} `json:"destinations"`
	}
	getJSON(t, ts.URL+"/routing", &routing)
	if len(routing.Destinations) != ses.Base().NumNodes() {
		t.Fatalf("routing has %d destinations, want %d", len(routing.Destinations), ses.Base().NumNodes())
	}

	var stats struct {
		Events []delta.Event `json:"events"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if len(stats.Events) == 0 || stats.Events[0].Kind != delta.EventInit {
		t.Fatalf("stats events: %+v", stats.Events)
	}
}

func TestUpdateFailRecoverLies(t *testing.T) {
	ts, ses := newTestServer(t)

	// Demand growth via scale.
	resp, ev := postJSON(t, ts.URL+"/update", map[string]any{"scale": 1.2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d (%v)", resp.StatusCode, ev)
	}
	if ev["kind"] != "update" || ev["warm"] != true {
		t.Fatalf("update event: %v", ev)
	}

	// Fail a real link by name.
	base := ses.Base()
	link := base.Edge(base.Links()[0])
	from, to := base.Name(link.From), base.Name(link.To)
	resp, ev = postJSON(t, ts.URL+"/fail", map[string]string{"from": from, "to": to})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fail: status %d (%v)", resp.StatusCode, ev)
	}
	if ev["kind"] != "fail" {
		t.Fatalf("fail event: %v", ev)
	}
	// Double-fail conflicts.
	resp, _ = postJSON(t, ts.URL+"/fail", map[string]string{"from": from, "to": to})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double fail: status %d, want 409", resp.StatusCode)
	}

	// Lies on the degraded topology.
	var lies struct {
		FakeNodes int `json:"fake_nodes"`
		Churn     struct {
			Total int `json:"total"`
		} `json:"churn"`
		Messages []map[string]any `json:"messages"`
	}
	getJSON(t, ts.URL+"/lies?extra=3", &lies)
	if lies.FakeNodes != len(lies.Messages) {
		t.Fatalf("lies: %d fake nodes but %d messages", lies.FakeNodes, len(lies.Messages))
	}
	if lies.Churn.Total != lies.FakeNodes {
		t.Fatalf("first lies call churn %d, want full injection %d", lies.Churn.Total, lies.FakeNodes)
	}

	// Recover.
	resp, ev = postJSON(t, ts.URL+"/recover", map[string]string{"from": from, "to": to})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recover: status %d (%v)", resp.StatusCode, ev)
	}
	if ev["kind"] != "recover" {
		t.Fatalf("recover event: %v", ev)
	}
}

func TestUpdateWithEntries(t *testing.T) {
	ts, ses := newTestServer(t)
	g := ses.Base()
	a, b := g.Name(0), g.Name(1)
	resp, ev := postJSON(t, ts.URL+"/update", map[string]any{
		"margin": 2,
		"entries": []map[string]any{
			{"from": a, "to": b, "rate": 1.0},
			{"from": b, "to": a, "rate": 0.5},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update entries: status %d (%v)", resp.StatusCode, ev)
	}
	box := ses.Bounds()
	if got := box.Max.At(0, 1); got != 2.0 {
		t.Fatalf("box max (0,1) = %v, want 2", got)
	}
}

func TestUpdateRejectsBadBodies(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, body := range []any{
		map[string]any{},
		map[string]any{"scale": -1},
		map[string]any{"entries": []map[string]any{{"from": "nope", "to": "alsono", "rate": 1}}},
		map[string]any{"scale": 1.2, "entries": []map[string]any{{"from": "a", "to": "b", "rate": 1}}},
		map[string]any{"margin": 0.5, "entries": []map[string]any{{"from": "a", "to": "b", "rate": 1}}},
	} {
		resp, _ := postJSON(t, ts.URL+"/update", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %v: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/fail", map[string]string{"from": "nope", "to": "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad fail: status %d, want 400", resp.StatusCode)
	}
}

// TestMutationBodyCap: a session mutation body past maxBodyBytes is
// refused with 413 instead of being buffered, on every mutating endpoint.
func TestMutationBodyCap(t *testing.T) {
	ts, ses := newTestServer(t)
	entry := `{"from":"NSF-00","to":"NSF-01","rate":1},`
	update := `{"margin":2,"entries":[` + strings.Repeat(entry, (2<<20)/len(entry)) + entry[:len(entry)-1] + `]}`
	link := `{"from":"` + strings.Repeat("a", 2<<20) + `","to":"NSF-01"}`
	for _, c := range []struct{ path, body string }{
		{"/update", update}, {"/fail", link}, {"/recover", link},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("POST %s: %v", c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a %d-byte body: status %d, want 413", c.path, len(c.body), resp.StatusCode)
		}
	}
	if n := len(ses.Events()); n != 1 {
		t.Fatalf("%d session events after refused mutations, want only the init event", n)
	}
}

func TestSSEStream(t *testing.T) {
	ts, ses := newTestServer(t)

	req, err := http.NewRequest("GET", ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	// Trigger an event after the subscription is live. UpdateBounds is
	// synchronous, so the event is already queued when it returns; the
	// deadline only covers stream delivery.
	if _, err := ses.UpdateBounds(demand.MarginBox(demand.Gravity(ses.Base(), 1.1), 2)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)

	var event, data string
	for event == "" || data == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before event arrived")
			}
			if strings.HasPrefix(line, "event: ") {
				event = strings.TrimPrefix(line, "event: ")
			}
			if strings.HasPrefix(line, "data: ") {
				data = strings.TrimPrefix(line, "data: ")
			}
		case <-deadline:
			t.Fatal("timed out waiting for SSE event")
		}
	}
	if event != "update" {
		t.Fatalf("SSE event %q, want update", event)
	}
	var ev delta.Event
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("SSE data %q: %v", data, err)
	}
	if ev.Kind != delta.EventUpdate {
		t.Fatalf("SSE payload kind %q", ev.Kind)
	}
}

func TestMethodRouting(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/state", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /state: status %d, want 405", resp.StatusCode)
	}
}
