package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mochy/api"
	"mochy/internal/cp"
	"mochy/internal/generator"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/nullmodel"
	"mochy/internal/projection"
)

// newTestServer returns an httptest server over a Server whose worker cap is
// high enough that tests' explicit workers values are never clamped.
func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	s := New(Config{CacheSize: 64, MaxConcurrent: 4, MaxWorkersPerJob: 8})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts, s
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

// runJob submits a v1 count or profile request and waits on the job's
// events stream for its terminal event. It returns the submit response and
// the job's result document; a submit that was not accepted (202) returns
// its own error body. A job that ends in an error event fails the test and
// yields a nil document, so a caller's 202 check alone never passes a
// failed count.
func runJob(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, sub := postJSON(t, url, body)
	if resp.StatusCode != http.StatusAccepted {
		return resp, sub
	}
	events := *resp.Request.URL
	events.Path = resp.Header.Get("Location") + "/events"
	evResp, err := http.Get(events.String())
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	dec := json.NewDecoder(evResp.Body)
	for {
		var ev api.JobEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("job events: %v", err)
		}
		switch ev.Type {
		case api.EventResult:
			var m map[string]json.RawMessage
			if err := json.Unmarshal(ev.Result, &m); err != nil {
				t.Fatal(err)
			}
			return resp, m
		case api.EventError:
			t.Errorf("job at %s failed: %s", url, ev.Error)
			return resp, nil
		}
	}
}

func decodeBody(t *testing.T, resp *http.Response) map[string]json.RawMessage {
	t.Helper()
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return m
}

func field[T any](t *testing.T, m map[string]json.RawMessage, key string) T {
	t.Helper()
	var v T
	raw, ok := m[key]
	if !ok {
		t.Fatalf("response missing field %q: %v", key, m)
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("field %q: %v", key, err)
	}
	return v
}

func loadGraph(t *testing.T, baseURL, name string, g *hypergraph.Hypergraph) {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	resp, _ := doJSON(t, http.MethodPut, baseURL+"/v1/graphs/"+name, map[string]any{"text": buf.String()})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load %s: HTTP %d", name, resp.StatusCode)
	}
}

func benchGraph(seed int64) *hypergraph.Hypergraph {
	return generator.Generate(generator.Config{
		Domain: generator.Contact, Nodes: 150, Edges: 700, Seed: seed,
	})
}

func TestLoadTextAndStatsRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := doJSON(t, http.MethodPut, ts.URL+"/v1/graphs/fig2", map[string]any{
		"text": "0 1 2\n0 3 1\n4 5 0\n6 7 2\n",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("HTTP %d, want 201", resp.StatusCode)
	}
	if got := field[string](t, body, "name"); got != "fig2" {
		t.Fatalf("name = %q", got)
	}
	if field[bool](t, body, "replaced") {
		t.Fatal("first load reported replaced")
	}

	resp, stats := getJSON(t, ts.URL+"/v1/graphs/fig2/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d", resp.StatusCode)
	}
	if n := field[int](t, stats, "num_nodes"); n != 8 {
		t.Fatalf("num_nodes = %d, want 8", n)
	}
	if n := field[int](t, stats, "num_edges"); n != 4 {
		t.Fatalf("num_edges = %d, want 4", n)
	}
	if h := field[map[string]int](t, stats, "size_histogram"); h["3"] != 4 {
		t.Fatalf("size_histogram = %v, want 4 edges of size 3", h)
	}

	resp, list := getJSON(t, ts.URL+"/v1/graphs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: HTTP %d", resp.StatusCode)
	}
	if got := field[[]string](t, list, "graphs"); len(got) != 1 || got[0] != "fig2" {
		t.Fatalf("graphs = %v, want [fig2]", got)
	}
}

func TestLoadEdgesBody(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := doJSON(t, http.MethodPut, ts.URL+"/v1/graphs/tri", map[string]any{
		"edges": [][]int32{{0, 1, 2}, {0, 1, 3}, {2, 3}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("HTTP %d, want 201", resp.StatusCode)
	}
	var stats api.Stats
	if err := json.Unmarshal(body["stats"], &stats); err != nil {
		t.Fatal(err)
	}
	if stats.NumEdges != 3 || stats.NumNodes != 4 {
		t.Fatalf("stats = %+v, want 3 edges over 4 nodes", stats)
	}
}

// TestLoadValidation covers the JSON upload body (PUT /v1/graphs/{name}
// with a GraphDoc): every malformed document is a 400 with an error body.
func TestLoadValidation(t *testing.T) {
	ts, s := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"invalid JSON", "{"},
		{"no payload", `{}`},
		{"both payloads", `{"text": "0 1\n", "edges": [[0, 1]]}`},
		{"malformed text", `{"text": "0 x\n"}`},
		// A huge node ID must be rejected, not allocated for: the incidence
		// index is proportional to the largest ID.
		{"huge node id in edges", `{"edges": [[2000000000]]}`},
		{"huge node id in text", `{"text": "0 2000000000\n"}`},
		{"huge num_nodes", `{"num_nodes": 2000000000, "edges": [[0, 1]]}`},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/g", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := decodeBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
		if msg := field[string](t, body, "error"); msg == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
	if s.registry.Len() != 0 {
		t.Fatalf("rejected uploads registered %v", s.registry.Names())
	}
}

// TestCountMatchesLibrary checks the acceptance criterion that served counts
// are identical to direct library calls, for all three algorithms.
func TestCountMatchesLibrary(t *testing.T) {
	ts, _ := newTestServer(t)
	g := benchGraph(3)
	loadGraph(t, ts.URL, "g", g)
	p := projection.Build(g)

	const samples, seed, workers = 500, 99, 2
	cases := []struct {
		algo string
		req  map[string]any
		want counting.Counts
	}{
		{"exact", map[string]any{"algorithm": "exact", "workers": workers},
			counting.CountExact(g, p, workers)},
		{"edge-sample", map[string]any{"algorithm": "edge-sample", "samples": samples, "seed": seed, "workers": workers},
			counting.CountEdgeSamples(g, p, samples, seed, workers)},
		{"wedge-sample", map[string]any{"algorithm": "wedge-sample", "samples": samples, "seed": seed, "workers": workers},
			counting.CountWedgeSamples(g, p, p, samples, seed, workers)},
	}
	for _, tc := range cases {
		resp, body := runJob(t, ts.URL+"/v1/graphs/g/count", tc.req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: HTTP %d: %s", tc.algo, resp.StatusCode, body["error"])
		}
		got := field[[]float64](t, body, "counts")
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d counts, want %d", tc.algo, len(got), len(tc.want))
		}
		for i, v := range got {
			if v != tc.want[i] {
				t.Errorf("%s: counts[%d] = %v, want %v (must be identical to the library)", tc.algo, i, v, tc.want[i])
			}
		}
		if total := field[float64](t, body, "total"); total != tc.want.Total() {
			t.Errorf("%s: total = %v, want %v", tc.algo, total, tc.want.Total())
		}
		if field[bool](t, body, "cached") {
			t.Errorf("%s: cold query reported cached", tc.algo)
		}
	}
}

func TestCountCacheSemantics(t *testing.T) {
	ts, s := newTestServer(t)
	loadGraph(t, ts.URL, "g", benchGraph(4))

	req := map[string]any{"algorithm": "exact"}
	_, cold := runJob(t, ts.URL+"/v1/graphs/g/count", req)
	if field[bool](t, cold, "cached") {
		t.Fatal("first query reported cached")
	}
	_, warm := runJob(t, ts.URL+"/v1/graphs/g/count", req)
	if !field[bool](t, warm, "cached") {
		t.Fatal("repeat query not served from cache")
	}
	if !bytes.Equal(cold["counts"], warm["counts"]) {
		t.Fatal("cached counts differ from cold counts")
	}

	// Different parameters are different cache keys.
	_, other := runJob(t, ts.URL+"/v1/graphs/g/count",
		map[string]any{"algorithm": "edge-sample", "samples": 100, "seed": 1})
	if field[bool](t, other, "cached") {
		t.Fatal("different algorithm was served the cached exact result")
	}

	// Re-uploading the graph invalidates prior results via the generation
	// in the cache key: a fresh upload must recompute.
	loadGraph(t, ts.URL, "g", benchGraph(5))
	_, reloaded := runJob(t, ts.URL+"/v1/graphs/g/count", req)
	if field[bool](t, reloaded, "cached") {
		t.Fatal("replaced graph served the old graph's cached counts")
	}
	if bytes.Equal(cold["counts"], reloaded["counts"]) {
		t.Fatal("replaced graph returned the old graph's counts")
	}
	if hits, _ := s.cache.Counters(); hits == 0 {
		t.Fatal("cache recorded no hits")
	}
}

// TestSamplingCacheSharedAcrossWorkers: sampling estimates are identical at
// every worker count, so the same request at another workers value is a
// cache hit, and the cached counts equal what that worker count computes.
func TestSamplingCacheSharedAcrossWorkers(t *testing.T) {
	ts, _ := newTestServer(t)
	g := benchGraph(7)
	loadGraph(t, ts.URL, "g", g)
	p := projection.Build(g)

	const samples, seed = 300, 3
	for algo, atTwo := range map[string]counting.Counts{
		"edge-sample":  counting.CountEdgeSamples(g, p, samples, seed, 2),
		"wedge-sample": counting.CountWedgeSamples(g, p, p, samples, seed, 2),
	} {
		req := map[string]any{"algorithm": algo, "samples": samples, "seed": seed, "workers": 1}
		_, cold := runJob(t, ts.URL+"/v1/graphs/g/count", req)
		if field[bool](t, cold, "cached") {
			t.Fatalf("%s: first query reported cached", algo)
		}
		req["workers"] = 2
		_, warm := runJob(t, ts.URL+"/v1/graphs/g/count", req)
		if !field[bool](t, warm, "cached") {
			t.Fatalf("%s: same estimate at workers=2 was recomputed, not served from cache", algo)
		}
		if !bytes.Equal(cold["counts"], warm["counts"]) {
			t.Fatalf("%s: cached counts differ between worker counts", algo)
		}
		assertCounts(t, warm, atTwo, algo+" at workers=2")
	}
}

func TestCountValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	loadGraph(t, ts.URL, "g", benchGraph(6))

	resp, _ := postJSON(t, ts.URL+"/v1/graphs/missing/count", map[string]any{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: HTTP %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/graphs/g/count", map[string]any{"algorithm": "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad algorithm: HTTP %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/graphs/g/count", map[string]any{"algorithm": "edge-sample"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing samples: HTTP %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/graphs/g/count")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET count: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestProfileMatchesLibrary checks that a served characteristic profile is
// identical to computing it directly against the same Chung-Lu nulls.
func TestProfileMatchesLibrary(t *testing.T) {
	ts, _ := newTestServer(t)
	g := benchGraph(8)
	loadGraph(t, ts.URL, "g", g)

	const randomizations, seed, workers = 2, 77, 2
	real := counting.CountExact(g, projection.Build(g), workers)
	copies := nullmodel.NewRandomizer(g).GenerateN(randomizations, seed)
	randomized := make([]*counting.Counts, len(copies))
	for i, c := range copies {
		cc := counting.CountExact(c, projection.Build(c), workers)
		randomized[i] = &cc
	}
	want := cp.Compute(&real, randomized)

	resp, body := runJob(t, ts.URL+"/v1/graphs/g/profile",
		map[string]any{"randomizations": randomizations, "seed": seed, "workers": workers})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body["error"])
	}
	got := field[[]float64](t, body, "profile")
	if len(got) != len(want) {
		t.Fatalf("profile length = %d, want %d", len(got), len(want))
	}
	for i, v := range got {
		if v != want[i] {
			t.Errorf("profile[%d] = %v, want %v (must be identical to the library)", i, v, want[i])
		}
	}
	if field[bool](t, body, "cached") {
		t.Fatal("cold profile reported cached")
	}

	// The repeat is a cache hit; the exact-count half is also now cached
	// for count queries.
	_, warm := runJob(t, ts.URL+"/v1/graphs/g/profile",
		map[string]any{"randomizations": randomizations, "seed": seed, "workers": workers})
	if !field[bool](t, warm, "cached") {
		t.Fatal("repeat profile not served from cache")
	}
	_, count := runJob(t, ts.URL+"/v1/graphs/g/count",
		map[string]any{"algorithm": "exact", "workers": workers})
	if !field[bool](t, count, "cached") {
		t.Fatal("profile did not seed the exact-count cache")
	}
}

func TestDeleteGraph(t *testing.T) {
	ts, _ := newTestServer(t)
	loadGraph(t, ts.URL, "g", benchGraph(9))
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/g", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d, want 200", resp.StatusCode)
	}
	resp2, _ := getJSON(t, ts.URL+"/v1/graphs/g/stats")
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("stats after delete: HTTP %d, want 404", resp2.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	loadGraph(t, ts.URL, "g", benchGraph(10))
	runJob(t, ts.URL+"/v1/graphs/g/count", map[string]any{"algorithm": "exact"})
	runJob(t, ts.URL+"/v1/graphs/g/count", map[string]any{"algorithm": "exact"})

	resp, body := getJSON(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if got := field[string](t, body, "status"); got != "ok" {
		t.Fatalf("status = %q", got)
	}
	if got := field[int](t, body, "graphs"); got != 1 {
		t.Fatalf("graphs = %d, want 1", got)
	}
	if got := field[uint64](t, body, "cache_hits"); got == 0 {
		t.Fatal("cache_hits = 0 after a repeated query")
	}
	if got := field[int](t, body, "job_capacity"); got != 4 {
		t.Fatalf("job_capacity = %d, want 4", got)
	}
}

// TestConcurrentClients drives parallel loads, counts and profiles against
// one server; run with -race this covers the registry/cache/pool acceptance
// criterion for concurrent correctness.
func TestConcurrentClients(t *testing.T) {
	ts, _ := newTestServer(t)
	graphs := make([]*hypergraph.Hypergraph, 4)
	wants := make([]counting.Counts, len(graphs))
	for i := range graphs {
		graphs[i] = generator.Generate(generator.Config{
			Domain: generator.Email, Nodes: 80, Edges: 300, Seed: int64(20 + i),
		})
		wants[i] = counting.CountExact(graphs[i], projection.Build(graphs[i]), 1)
		loadGraph(t, ts.URL, fmt.Sprintf("g%d", i), graphs[i])
	}

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				idx := (c + i) % len(graphs)
				resp, body := runJob(t, ts.URL+fmt.Sprintf("/v1/graphs/g%d/count", idx),
					map[string]any{"algorithm": "exact"})
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("client %d: HTTP %d", c, resp.StatusCode)
					return
				}
				got := field[[]float64](t, body, "counts")
				for j, v := range got {
					if v != wants[idx][j] {
						t.Errorf("client %d graph %d: counts[%d] = %v, want %v", c, idx, j, v, wants[idx][j])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}
