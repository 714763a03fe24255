package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mochy/api"
	"mochy/internal/generator"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/projection"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1000000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule itself: at least ten samples lie beyond the percentile.
		if q := tailQuantile(c.n); q > 0 && c.n-rank(q, c.n) < 10 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than 10 samples beyond it", c.n, q)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(101-i)*time.Millisecond)
	}
	s = s.sorted()
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50 * time.Millisecond}, {0.9, 90 * time.Millisecond}, {0.99, 99 * time.Millisecond}, {1, 100 * time.Millisecond}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := (samples{}).quantile(0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

const scrapeBefore = `# HELP mochyd_http_responses_total Responses written.
# TYPE mochyd_http_responses_total counter
mochyd_http_responses_total{route="GET /v1/graphs/{name}/stats",code="200"} 10
mochyd_http_responses_total{route="GET /v1/metrics",code="200"} 1
mochyd_cache_hits 5
mochyd_http_request_duration_seconds_bucket{route="GET /v1/graphs/{name}/stats",le="0.001"} 9
mochyd_http_request_duration_seconds_bucket{route="GET /v1/graphs/{name}/stats",le="+Inf"} 10
mochyd_http_request_duration_seconds_sum{route="GET /v1/graphs/{name}/stats"} 0.002
mochyd_http_request_duration_seconds_count{route="GET /v1/graphs/{name}/stats"} 10
mochyd_store_wal_fsync_seconds_bucket{le="+Inf"} 4
mochyd_store_wal_fsync_seconds_sum 0.004
mochyd_store_wal_fsync_seconds_count 4
`

const scrapeAfter = `mochyd_http_responses_total{route="GET /v1/graphs/{name}/stats",code="200"} 30
mochyd_http_responses_total{route="GET /v1/graphs/{name}/stats",code="404"} 2
mochyd_http_responses_total{route="GET /v1/metrics",code="200"} 2
mochyd_cache_hits 45
mochyd_http_request_duration_seconds_bucket{route="GET /v1/graphs/{name}/stats",le="0.001"} 31
mochyd_http_request_duration_seconds_bucket{route="GET /v1/graphs/{name}/stats",le="+Inf"} 32
mochyd_http_request_duration_seconds_sum{route="GET /v1/graphs/{name}/stats"} 0.0064
mochyd_http_request_duration_seconds_count{route="GET /v1/graphs/{name}/stats"} 32
mochyd_http_request_duration_seconds_bucket{route="GET /v1/graphs",le="+Inf"} 0
mochyd_http_request_duration_seconds_sum{route="GET /v1/graphs"} 0
mochyd_http_request_duration_seconds_count{route="GET /v1/graphs"} 0
mochyd_store_wal_fsync_seconds_bucket{le="+Inf"} 14
mochyd_store_wal_fsync_seconds_sum 0.014
mochyd_store_wal_fsync_seconds_count 14
`

func parseScrape(t *testing.T, text string) *api.MetricsSnapshot {
	t.Helper()
	s, err := api.ParseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMetricsDeltas(t *testing.T) {
	before, after := parseScrape(t, scrapeBefore), parseScrape(t, scrapeAfter)
	if got := counterDelta(before, after, "mochyd_cache_hits"); got != 40 {
		t.Errorf("cache hits delta = %v, want 40", got)
	}
	// 22 stats responses and the scrape that opened the window, which the
	// counter only counts once its response is written; less that one.
	if got := requestsDuring(before, after); got != 22 {
		t.Errorf("requestsDuring = %v, want 22", got)
	}
	h := handlerMS(before, after)
	if got, want := h["GET /v1/graphs/{name}/stats"], 0.2; abs(got-want) > 1e-9 {
		t.Errorf("stats handler mean = %v ms, want %v (from sums: 4.4 ms over 22)", got, want)
	}
	if _, ok := h["GET /v1/graphs"]; ok {
		t.Errorf("a route with no new observations must be omitted")
	}
	fsync := histDelta(before, after, "mochyd_store_wal_fsync_seconds", "")[""]
	if fsync.Count != 10 || abs(fsync.mean()-0.001) > 1e-12 {
		t.Errorf("fsync delta = %+v, want 10 observations of 1 ms", fsync)
	}
	if got := counterDelta(before, after, "mochyd_absent_total"); got != 0 {
		t.Errorf("absent counter delta = %v, want 0", got)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestSeedDeterminism(t *testing.T) {
	serveSeq := func(seed int64, caller int) string {
		next := servePlan(seed, caller)
		var b strings.Builder
		for i := 0; i < 200; i++ {
			fmt.Fprint(&b, next())
		}
		return b.String()
	}
	ingestSeq := func(seed int64, caller int) string {
		next := ingestPlan(seed, caller)
		var b strings.Builder
		for i := 0; i < 200; i++ {
			fmt.Fprint(&b, next())
		}
		return b.String()
	}
	edges := func(seed int64) string {
		g := newEdgeGen(seed, ingestNodes, 0, 1)
		var b strings.Builder
		for i := 0; i < 200; i++ {
			fmt.Fprint(&b, g.next())
		}
		return b.String()
	}
	graph := func(seed int64) string {
		return fmt.Sprint(graphEdges(domainGraph(seed, 0, generator.Coauthorship, 300, 400)))
	}
	for name, gen := range map[string]func(seed int64) string{
		"serve plan":      func(s int64) string { return serveSeq(s, 0) },
		"ingest plan":     func(s int64) string { return ingestSeq(s, 0) },
		"edge stream":     edges,
		"generated graph": graph,
	} {
		if gen(7) != gen(7) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if gen(7) == gen(8) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
	if serveSeq(7, 0) == serveSeq(7, 1) || ingestSeq(7, 0) == ingestSeq(7, 1) {
		t.Errorf("two callers of one run share an op sequence")
	}
	if subSeed(7, streamNull, 1, 0) == subSeed(7, streamNull, 0, 1) {
		t.Errorf("subSeed must depend on the order of its parts")
	}
}

// TestEdgeGenUnique checks that the generators of the parts of one edge
// space never return an edge twice, within a part or across parts.
func TestEdgeGenUnique(t *testing.T) {
	gens := []*edgeGen{newEdgeGen(3, 500, 0, 2), newEdgeGen(4, 500, 1, 2)}
	seen := make(map[string]bool)
	for i := 0; i < 5000; i++ {
		e := gens[i%2].next()
		if len(e) < 2 || len(e) > 6 {
			t.Fatalf("edge %v has size %d, want 2..6", e, len(e))
		}
		for j := 1; j < len(e); j++ {
			if e[j-1] >= e[j] {
				t.Fatalf("edge %v is not sorted and duplicate-free", e)
			}
		}
		key := fmt.Sprint(e)
		if seen[key] {
			t.Fatalf("edge %v returned twice", e)
		}
		seen[key] = true
	}
}

// TestLiveSizeOK checks the read check of the shared live graph: the other
// caller holds callerEdges ± 1 edges, its in-flight mutation included.
func TestLiveSizeOK(t *testing.T) {
	mine := callerEdges - 1
	for _, c := range []struct {
		edges int
		ok    bool
	}{
		{mine + callerEdges, true},
		{mine + callerEdges - 1, true},
		{mine + callerEdges + 1, true},
		{mine + callerEdges - 2, false},
		{mine + callerEdges + 2, false},
		{mine, false},
	} {
		if got := liveSizeOK(c.edges, mine); got != c.ok {
			t.Errorf("liveSizeOK(%d, %d) = %v, want %v", c.edges, mine, got, c.ok)
		}
	}
}

// TestReplayCounterMapsIDs replays a merged log whose acknowledgement order
// differs from the order the daemon assigned ids in: the second insert was
// acknowledged first, and its id is the one deleted. Replayed with the
// daemon's ids, the delete would remove the wrong edge.
func TestReplayCounterMapsIDs(t *testing.T) {
	a, b, c, d := []int32{0, 1, 2}, []int32{1, 2, 3}, []int32{2, 3, 4}, []int32{0, 4, 5}
	log := []mutation{
		{insert: true, nodes: b, id: 1, seq: 1},
		{insert: true, nodes: a, id: 0, seq: 2},
		{id: 1, seq: 3},
		{insert: true, nodes: c, id: 2, seq: 4},
		{insert: true, nodes: d, id: 3, seq: 5},
	}
	g := hypergraph.FromEdges(6, [][]int32{a, c, d})
	want := counting.CountExact(g, projection.Build(g), 1)
	if _, _, err := replayCounter(log, 0, want[:]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayCounter(log[:4], 0, want[:]); err == nil {
		t.Error("replayCounter accepted counts the log does not reach")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Name: "op", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Op: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{Op: 1, ID: 4, Parent: 3, Name: "c", Start: 35, End: 45},
		{Op: 2, ID: 5, Name: "op", Start: 200, End: 250},
	}
	layers, ops := selfTimes(spans)
	if ops != 2 {
		t.Errorf("ops = %d, want 2", ops)
	}
	want := map[string]time.Duration{"op": 50 + 50, "a": 30, "b": 20, "c": 10}
	for _, l := range layers {
		if l.Self != want[l.Name] {
			t.Errorf("self(%s) = %v, want %v", l.Name, l.Self, want[l.Name])
		}
	}
	if got := coveredWithin(0, 10, []span{{Start: -5, End: 3}, {Start: 8, End: 20}}); got != 5 {
		t.Errorf("covered clipped to the parent = %d, want 5", got)
	}
}

func TestSetupRepeated(t *testing.T) {
	var torn []int
	got, _, err := setupRepeated(func(r int) (int, error) { return r, nil }, func(r int) { torn = append(torn, r) })
	if err != nil || got != setupRounds-1 {
		t.Fatalf("setupRepeated = %d, %v; want the last round", got, err)
	}
	if len(torn) != setupRounds-1 {
		t.Errorf("tore down %v, want every round but the last", torn)
	}
}

// TestSpecMatchesBenchmarkJSON keeps the committed BENCHMARK.json equal to
// what --spec prints, so the declared metrics are the reported ones.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed, generated any
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(benchmarkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, generated) {
		t.Errorf("BENCHMARK.json differs from perfbench --spec; regenerate it with\n  bash perfbench/run.sh --spec > BENCHMARK.json")
	}
}
