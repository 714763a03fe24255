package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"mochy/api"
	"mochy/client"
	"mochy/internal/server"
)

// daemon is an embedded mochyd served on a real loopback listener, so every
// call pays the HTTP transport a remote SDK user pays.
type daemon struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
	// transports are the clients' connection pools, closed on stop.
	transports []*http.Transport
}

// startDaemon serves srv on 127.0.0.1 at an ephemeral port.
func startDaemon(srv *server.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:  srv,
		http: &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// newClient returns an SDK client with its own transport. A cached count
// polls its job while the job's event stream is still open, so a caller
// keeps up to two keep-alive connections.
func (d *daemon) newClient() *client.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	d.transports = append(d.transports, tr)
	return client.New(d.url, client.WithHTTPClient(&http.Client{Transport: tr}))
}

// stop drains the HTTP server, waits for its serve loop to return, closes
// the clients' idle connections, then closes the mochyd engine (which
// flushes the store when one is attached).
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := d.http.Shutdown(ctx)
	if err := <-d.done; err != nil && !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	for _, tr := range d.transports {
		tr.CloseIdleConnections()
	}
	if err := d.srv.Close(); err != nil {
		return fmt.Errorf("close daemon: %w", err)
	}
	if herr != nil {
		return fmt.Errorf("shut down http: %w", herr)
	}
	return nil
}

// scrape reads /v1/metrics.
func scrape(ctx context.Context, c *client.Client) (*api.MetricsSnapshot, error) {
	s, err := c.MetricsSnapshot(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	return s, nil
}

// daemonLayers fills the per-layer metrics serve and ingest share — HTTP
// requests, cache hits and jobs per operation, flight-recorder spans,
// tracing overhead on the main class, Go allocation and GC — notes the
// self time of each span name, and joins the daemon's retained traces to the
// benchmark's operations. It returns the benchmark's spans.
func daemonLayers(ctx context.Context, c *client.Client, before, after *api.MetricsSnapshot, lr *loadResult, mainClass int, allocBytes uint64, gcCycles uint32, tr *tracer, out *outcome) ([]span, error) {
	m := out.metrics
	done := float64(len(lr.records))
	hits := counterDelta(before, after, "mochyd_cache_hits")
	misses := counterDelta(before, after, "mochyd_cache_misses")
	m["server.requests_per_op"] = requestsDuring(before, after) / done
	m["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["server.jobs_per_op"] = counterDelta(before, after, "mochyd_jobs_started_total") / done
	m["obs.spans_per_op"] = counterDelta(before, after, "mochyd_trace_spans_total") / done
	traced, untraced := true, false
	m["obs.trace_overhead"] = ratio(ms(lr.byClass(mainClass, &traced).sorted().quantile(0.5)),
		ms(lr.byClass(mainClass, &untraced).sorted().quantile(0.5))) - 1
	m["go.alloc_bytes_per_op"] = float64(allocBytes) / done
	m["go.gc_cycles_per_kop"] = float64(gcCycles) / done * 1000
	spans := tr.snapshot()
	selfPerOp(spans, out)
	return spans, joinDaemonTraces(ctx, c, out)
}

// routeLabel is the route label mochyd puts on its per-route metrics.
func routeLabel(method, pattern string) string { return method + " " + pattern }

// handlerMS returns the mean handler time of each route over a window,
// from the exact histogram sums.
func handlerMS(before, after *api.MetricsSnapshot) map[string]float64 {
	out := make(map[string]float64)
	for route, sc := range histDelta(before, after, "mochyd_http_request_duration_seconds", "route") {
		out[route] = sc.mean() * 1000
	}
	return out
}

// requestsDuring counts the HTTP responses over a window, less the scrape
// that closed it.
func requestsDuring(before, after *api.MetricsSnapshot) float64 {
	return counterDelta(before, after, "mochyd_http_responses_total") - 1
}

// joinDaemonTraces reads the daemon's retained span trees and reports how
// many belong to the benchmark's traced operations and the daemon spans'
// total duration per joined trace, by span name.
func joinDaemonTraces(ctx context.Context, c *client.Client, out *outcome) error {
	list, err := c.Traces(ctx, 0, 0)
	if err != nil {
		return fmt.Errorf("daemon traces: %w", err)
	}
	joined := 0
	total := make(map[string]time.Duration)
	for _, t := range list.Traces {
		if len(t.ID) < 10 || t.ID[:10] != "perfbench-" {
			continue
		}
		joined++
		for _, s := range t.Spans {
			total[s.Name] += time.Duration(s.DurationMS * float64(time.Millisecond))
		}
	}
	out.note("daemon traces joined to benchmark operations: %d of %d retained", joined, len(list.Traces))
	for name, d := range total {
		out.note("  daemon span %-36s %10.4f ms per joined trace", name, ratio(ms(d), float64(joined)))
	}
	return nil
}
