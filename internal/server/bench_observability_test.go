package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Observability overhead benchmarks: the flight recorder (typed metrics
// registry, per-route latency histograms, span tracer) sits on every
// request, so its cost on the hottest path — a cached count job, which does
// no counting work and is nothing but router + job bookkeeping + cache
// lookup + JSON encode — bounds its cost everywhere. Run the traced and
// untraced variants and compare ns/op; BENCH_obs.json records the deltas.

// benchCountServer builds a server with the given trace-buffer setting,
// loads one graph, and primes the count cache so every benchmark request
// is a pure cache hit.
func benchCountServer(b *testing.B, traceBuffer int) *Server {
	b.Helper()
	s := New(Config{CacheSize: 64, MaxConcurrent: 4, MaxWorkersPerJob: 4, TraceBuffer: traceBuffer})
	b.Cleanup(func() { _ = s.Close() })
	g := testGraph(b, "0 1 2\n0 1 3\n2 3\n1 2 3\n0 2\n")
	if _, err := s.LoadGraph("g", g); err != nil {
		b.Fatal(err)
	}
	benchCount(b, s)
	return s
}

// benchCount runs one count end to end through the handler: the submit
// (202 with a job) plus the job's events stream up to its terminal result.
func benchCount(b *testing.B, s *Server) {
	body := `{"algorithm":"exact","workers":1}`
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs/g/count", strings.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		b.Fatalf("count: %d %s", rec.Code, rec.Body)
	}
	ev := httptest.NewRecorder()
	s.ServeHTTP(ev, httptest.NewRequest(http.MethodGet, rec.Header().Get("Location")+"/events", nil))
	if ev.Code != http.StatusOK || !strings.Contains(ev.Body.String(), `"type":"result"`) {
		b.Fatalf("count events: %d %s", ev.Code, ev.Body)
	}
}

// BenchmarkObservabilityCachedCount measures the full request path of a
// cached count with span recording on (default ring) and off
// (TraceBuffer < 0). Metrics and trace-id propagation are always on —
// that is the production configuration — so "untraced" isolates just the
// ring recording the flag can disable.
func BenchmarkObservabilityCachedCount(b *testing.B) {
	for _, tc := range []struct {
		name        string
		traceBuffer int
	}{
		{"traced", 0},
		{"untraced", -1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := benchCountServer(b, tc.traceBuffer)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchCount(b, s)
			}
		})
	}
}

// BenchmarkObservabilityScrape measures a full /v1/metrics exposition:
// one OnScrape refresh of every mirrored gauge plus the registry render.
func BenchmarkObservabilityScrape(b *testing.B) {
	s := benchCountServer(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("metrics: %d", rec.Code)
		}
	}
}
