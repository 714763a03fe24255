package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mochy"
	"mochy/api"
	"mochy/client"
	"mochy/internal/generator"
	counting "mochy/internal/mochy"
	"mochy/internal/projection"
	"mochy/internal/server"
)

// newClient stands up an in-process mochyd and an SDK client against it.
func newClient(t *testing.T, opts ...client.Option) (*client.Client, *server.Server) {
	t.Helper()
	s := server.New(server.Config{CacheSize: 64, MaxConcurrent: 4, MaxWorkersPerJob: 8})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return client.New(ts.URL, opts...), s
}

func testGraph(seed int64) *mochy.Hypergraph {
	return generator.Generate(generator.Config{
		Domain: generator.Contact, Nodes: 150, Edges: 700, Seed: seed,
	})
}

func sameGraph(t *testing.T, a, b *mochy.Hypergraph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("graph shape: %d nodes %d edges, want %d nodes %d edges",
			b.NumNodes(), b.NumEdges(), a.NumNodes(), a.NumEdges())
	}
	for e := 0; e < a.NumEdges(); e++ {
		ae, be := a.Edge(e), b.Edge(e)
		if len(ae) != len(be) {
			t.Fatalf("edge %d: %d nodes, want %d", e, len(be), len(ae))
		}
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("edge %d node %d: %d, want %d", e, i, be[i], ae[i])
			}
		}
	}
}

// TestBinaryRoundTripOverHTTP is the satellite acceptance test: upload a
// graph over the binary transport, download it back over the binary
// transport, and require exact structural equality with the in-memory
// original.
func TestBinaryRoundTripOverHTTP(t *testing.T) {
	c, _ := newClient(t)
	ctx := context.Background()
	g := testGraph(3)

	res, err := c.UploadGraph(ctx, "g", g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replaced || res.Stats.NumEdges != g.NumEdges() {
		t.Fatalf("upload result %+v", res)
	}
	got, err := c.DownloadGraph(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
}

func TestUploadTransports(t *testing.T) {
	c, _ := newClient(t)
	ctx := context.Background()

	// Text transport.
	if _, err := c.UploadGraphText(ctx, "txt", strings.NewReader("0 1 2\n0 3 1\n4 5 0\n")); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx, "txt")
	if err != nil {
		t.Fatal(err)
	}
	if st.NumEdges != 3 || st.NumNodes != 6 {
		t.Fatalf("text upload stats = %+v", st)
	}

	// JSON edges transport.
	if _, err := c.UploadGraphEdges(ctx, "js", [][]int32{{0, 1, 2}, {0, 1, 3}, {2, 3}}, 0); err != nil {
		t.Fatal(err)
	}
	if st, err = c.Stats(ctx, "js"); err != nil || st.NumEdges != 3 {
		t.Fatalf("edges upload stats = %+v, err %v", st, err)
	}

	// Replacement is reported.
	res, err := c.UploadGraph(ctx, "txt", testGraph(9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replaced {
		t.Fatal("re-upload did not report replaced")
	}

	list, err := c.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Graphs) != 2 {
		t.Fatalf("graphs = %v, want 2 names", list.Graphs)
	}
}

// TestCountJobMatchesLibrary runs all three algorithms through the async
// job protocol and requires results identical to direct library calls.
func TestCountJobMatchesLibrary(t *testing.T) {
	c, _ := newClient(t)
	ctx := context.Background()
	g := testGraph(5)
	if _, err := c.UploadGraph(ctx, "g", g); err != nil {
		t.Fatal(err)
	}
	p := projection.Build(g)

	const samples, seed, workers = 500, 99, 2
	cases := []struct {
		req  api.CountRequest
		want counting.Counts
	}{
		{api.CountRequest{Algorithm: api.AlgoExact, Workers: workers},
			counting.CountExact(g, p, workers)},
		{api.CountRequest{Algorithm: api.AlgoEdge, Samples: samples, Seed: seed, Workers: workers},
			counting.CountEdgeSamples(g, p, samples, seed, workers)},
		{api.CountRequest{Algorithm: api.AlgoWedge, Samples: samples, Seed: seed, Workers: workers},
			counting.CountWedgeSamples(g, p, p, samples, seed, workers)},
	}
	for _, tc := range cases {
		res, err := c.Count(ctx, "g", tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.req.Algorithm, err)
		}
		if len(res.Counts) != len(tc.want) {
			t.Fatalf("%s: %d counts, want %d", tc.req.Algorithm, len(res.Counts), len(tc.want))
		}
		for i, v := range res.Counts {
			if v != tc.want[i] {
				t.Errorf("%s: counts[%d] = %v, want %v", tc.req.Algorithm, i, v, tc.want[i])
			}
		}
		if res.Total != tc.want.Total() {
			t.Errorf("%s: total = %v, want %v", tc.req.Algorithm, res.Total, tc.want.Total())
		}
	}

	// The repeat of the exact count is served from the server cache.
	warm, err := c.Count(ctx, "g", api.CountRequest{Algorithm: api.AlgoExact, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("repeat exact count not served from cache")
	}
}

// TestCountProgressEvents checks that an exact count streams monotone
// progress through the job events endpoint into the SDK callback.
func TestCountProgressEvents(t *testing.T) {
	c, _ := newClient(t)
	ctx := context.Background()
	// Large enough that every worker crosses multiple progress strides.
	g := generator.Generate(generator.Config{
		Domain: generator.Contact, Nodes: 600, Edges: 4000, Seed: 7,
	})
	if _, err := c.UploadGraph(ctx, "g", g); err != nil {
		t.Fatal(err)
	}

	var events int
	lastDone := 0
	res, err := c.CountWithProgress(ctx, "g", api.CountRequest{Algorithm: api.AlgoExact, Workers: 2},
		func(done, total int) {
			if total != g.NumEdges() {
				t.Errorf("progress total = %d, want %d", total, g.NumEdges())
			}
			if done < lastDone {
				t.Errorf("progress went backwards: %d after %d", done, lastDone)
			}
			lastDone = done
			events++
		})
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no progress events observed")
	}
	want := counting.CountExact(g, projection.Build(g), 2)
	for i, v := range res.Counts {
		if v != want[i] {
			t.Fatalf("counts[%d] = %v, want %v", i, v, want[i])
		}
	}
}

// TestJobPolling drives the poll half of the protocol explicitly: start,
// observe the resource, wait via WaitJob's polling fallback.
func TestJobPolling(t *testing.T) {
	c, _ := newClient(t, client.WithPollInterval(5*time.Millisecond))
	ctx := context.Background()
	if _, err := c.UploadGraph(ctx, "g", testGraph(6)); err != nil {
		t.Fatal(err)
	}

	j, err := c.StartCount(ctx, "g", api.CountRequest{Algorithm: api.AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.Kind != api.JobKindCount || j.Graph != "g" {
		t.Fatalf("job resource = %+v", j)
	}
	done, err := c.WaitJob(ctx, j.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != api.JobDone {
		t.Fatalf("state = %q, want done", done.State)
	}
	res, err := done.CountResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != "g" || res.Algorithm != api.AlgoExact {
		t.Fatalf("result = %+v", res)
	}

	// The finished job remains pollable and listed.
	again, err := c.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != api.JobDone || again.FinishedAt == nil {
		t.Fatalf("re-polled job = %+v", again)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("job listing empty")
	}
}

// TestJobFailure: a job that cannot acquire the closed pool fails, and the
// SDK surfaces it as *JobError.
func TestJobFailure(t *testing.T) {
	c, s := newClient(t)
	ctx := context.Background()
	if _, err := c.UploadGraph(ctx, "g", testGraph(7)); err != nil {
		t.Fatal(err)
	}
	s.Close() // counting pool rejects new jobs; HTTP keeps serving
	_, err := c.Count(ctx, "g", api.CountRequest{Algorithm: api.AlgoExact})
	var jerr *client.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("err = %v, want *JobError", err)
	}
	if jerr.Message == "" {
		t.Fatal("JobError without a message")
	}
}

func TestProfileJob(t *testing.T) {
	c, _ := newClient(t)
	ctx := context.Background()
	g := testGraph(8)
	if _, err := c.UploadGraph(ctx, "g", g); err != nil {
		t.Fatal(err)
	}
	res, err := c.Profile(ctx, "g", api.ProfileRequest{Randomizations: 2, Seed: 77, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profile) != mochy.NumMotifs {
		t.Fatalf("profile has %d components, want %d", len(res.Profile), mochy.NumMotifs)
	}
	if res.Randomizations != 2 || res.Seed != 77 {
		t.Fatalf("profile echo = %+v", res)
	}
}

// TestLiveWorkflow drives the live-graph API end to end through the SDK:
// inserts, O(1) counts, mixed patch, delete-by-id, stream ingest, snapshot,
// and a count job against the frozen view served from the seeded cache.
func TestLiveWorkflow(t *testing.T) {
	c, _ := newClient(t)
	ctx := context.Background()

	ins, err := c.InsertEdges(ctx, "soc", [][]int32{{0, 1, 2}, {0, 3, 1}, {4, 5, 0}, {6, 7, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if ins.Applied != 4 || len(ins.Results) != 4 {
		t.Fatalf("insert = %+v", ins)
	}

	lc, err := c.LiveCounts(ctx, "soc")
	if err != nil {
		t.Fatal(err)
	}
	if lc.Edges != 4 || lc.Total != ins.Total {
		t.Fatalf("live counts = %+v, want totals matching insert response", lc)
	}

	pat, err := c.Patch(ctx, "soc", []int32{ins.Results[1].ID}, [][]int32{{0, 3, 7}, {2, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if pat.Applied != 3 {
		t.Fatalf("patch applied = %d, want 3", pat.Applied)
	}

	del, err := c.DeleteEdge(ctx, "soc", ins.Results[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if del.Edges != 4 {
		t.Fatalf("edges after delete = %d, want 4", del.Edges)
	}

	ids, err := c.LiveEdges(ctx, "soc")
	if err != nil {
		t.Fatal(err)
	}
	if ids.Edges != 4 || len(ids.IDs) != 4 {
		t.Fatalf("edge list = %+v", ids)
	}

	// Stream ingest with a covering reservoir: estimates equal exact.
	ing, err := c.IngestEdges(ctx, "ticks", [][]int32{{0, 1, 2}, {0, 3, 1}, {4, 5, 0}, {6, 7, 2}, {1, 4, 6}},
		client.IngestOptions{Capacity: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ing.Inserted != 5 || ing.Estimator == nil {
		t.Fatalf("ingest = %+v", ing)
	}
	for i, v := range ing.Estimator.Estimates {
		if v != ing.Counts[i] {
			t.Fatalf("estimate[%d] = %v, want exact %v (capacity covers stream)", i, v, ing.Counts[i])
		}
	}
	st, err := c.StreamState(ctx, "ticks")
	if err != nil {
		t.Fatal(err)
	}
	if st.Estimator == nil || st.Estimator.Capacity != 100 {
		t.Fatalf("stream state = %+v", st)
	}

	// Snapshot freezes into the immutable registry with the exact count
	// pre-seeded: the count job is an immediate cache hit.
	snap, err := c.Snapshot(ctx, "soc", "")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stats.NumEdges != 4 {
		t.Fatalf("snapshot stats = %+v", snap.Stats)
	}
	frozen, err := c.Count(ctx, "soc", api.CountRequest{Algorithm: api.AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	if !frozen.Cached {
		t.Fatal("frozen-view exact count was not served from the seeded cache")
	}
	if frozen.Total != del.Total {
		t.Fatalf("frozen total = %v, want live total %v", frozen.Total, del.Total)
	}

	// Delete covers both registries.
	dres, err := c.DeleteGraph(ctx, "soc")
	if err != nil {
		t.Fatal(err)
	}
	if !dres.Static || !dres.Live {
		t.Fatalf("delete = %+v, want both registries", dres)
	}
}

// TestPartialMutationSurfaced: a batch that fails mid-way still applied
// its prefix; the SDK must surface both the typed error and the partial
// result so the caller knows what changed.
func TestPartialMutationSurfaced(t *testing.T) {
	c, _ := newClient(t)
	ctx := context.Background()

	res, err := c.InsertEdges(ctx, "g", [][]int32{{0, 1, 2}, {0, 1, 2}, {3, 4, 5}})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("err = %v, want 409 APIError", err)
	}
	// The batch stops at the first failing op: results cover the applied
	// prefix plus the failure.
	if res.Applied != 1 || len(res.Results) != 2 || res.Results[1].Error == "" {
		t.Fatalf("partial result = %+v, want applied=1 and the failing op's error", res)
	}
	if apiErr.Message == "" {
		t.Fatal("APIError message empty; should carry the failing op's error")
	}
	lc, err := c.LiveCounts(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if lc.Edges != 1 {
		t.Fatalf("live graph has %d edges, want the applied prefix of 1", lc.Edges)
	}

	// Mid-stream ingest failure: prefix applied, error surfaced.
	ing, err := c.IngestEdges(ctx, "s", [][]int32{{7, 8, 9}, {-1, 3}}, client.IngestOptions{})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("ingest err = %v, want 400 APIError", err)
	}
	if ing.Ingested != 1 || apiErr.Message == "" {
		t.Fatalf("partial ingest = %+v (msg %q), want 1 applied with message", ing, apiErr.Message)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	c, _ := newClient(t)
	ctx := context.Background()
	if _, err := c.UploadGraph(ctx, "g", testGraph(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(ctx, "g", api.CountRequest{}); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Graphs != 1 || h.JobCapacity != 4 {
		t.Fatalf("health = %+v", h)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mochyd_queue_depth", "mochyd_jobs_inflight", "mochyd_cache_hits",
		"mochyd_cache_evictions", "mochyd_jobs_done_total",
		`mochyd_http_request_duration_seconds_count{route="PUT /v1/graphs/{name}"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}

func TestAPIErrorMapping(t *testing.T) {
	c, _ := newClient(t)
	ctx := context.Background()

	_, err := c.Stats(ctx, "missing")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("err = %v, want 404 APIError", err)
	}
	if apiErr.Message == "" {
		t.Fatal("APIError without server message")
	}

	if _, err := c.StartCount(ctx, "missing", api.CountRequest{}); err == nil {
		t.Fatal("count on missing graph succeeded")
	}
	_, err = c.UploadGraphText(ctx, "bad", strings.NewReader("0 x\n"))
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad text upload err = %v, want 400", err)
	}
}

// TestRetryAfterSurfaced: a 429 backpressure response surfaces the server's
// Retry-After hint on the typed error (served canned, so the test does not
// depend on saturating a real pool).
func TestRetryAfterSurfaced(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"job queue saturated"}`))
	}))
	defer ts.Close()
	c := client.New(ts.URL)
	_, err := c.StartCount(context.Background(), "g", api.CountRequest{})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want APIError", err)
	}
	if apiErr.StatusCode != http.StatusTooManyRequests || apiErr.RetryAfter != 7*time.Second {
		t.Fatalf("APIError = %+v, want 429 with 7s Retry-After", apiErr)
	}
}

// TestWaitCancellation: cancelling the context aborts the wait promptly
// even though the server-side job keeps running.
func TestWaitCancellation(t *testing.T) {
	c, _ := newClient(t)
	ctx := context.Background()
	g := generator.Generate(generator.Config{
		Domain: generator.Contact, Nodes: 1500, Edges: 12000, Seed: 13,
	})
	if _, err := c.UploadGraph(ctx, "big", g); err != nil {
		t.Fatal(err)
	}
	j, err := c.StartCount(ctx, "big", api.CountRequest{Algorithm: api.AlgoExact, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.WaitJob(cctx, j.ID, nil)
	if err == nil {
		t.Skip("count finished before the cancellation window; nothing to assert")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context cancellation", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// The job itself is unaffected and finishes.
	done, err := c.WaitJob(ctx, j.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != api.JobDone {
		t.Fatalf("state = %q after cancellation of the wait, want done", done.State)
	}
}
