package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"

	"mochy/api"
	"mochy/client"
	"mochy/internal/generator"
	"mochy/internal/hypergraph"
	"mochy/internal/server"
)

// The serve workload is the daemon's read path: cached exact counts on
// pre-counted graphs plus dashboard refreshes that read metadata. No
// uncached or heavy job runs, so router, handlers, cache, job store, JSON
// encoding and transport are all of the time and the kernel none of it.

const (
	serveCount = iota
	serveRead
)

var serveClasses = []string{"count", "read"}

// serveOp is one planned operation: a cached exact count of a graph, or a
// dashboard refresh that reads a graph's stats, the live graph's counts
// and the graph list.
type serveOp struct {
	count bool
	graph int
}

// servePlan returns the op sequence of one caller: half cached counts,
// half dashboard refreshes, over the pre-counted graphs.
func servePlan(seed int64, caller int) func() serveOp {
	rng := rand.New(rand.NewSource(subSeed(seed, streamClient, int64(caller))))
	return func() serveOp {
		return serveOp{count: rng.Intn(2) == 0, graph: rng.Intn(len(serveGraphs))}
	}
}

// serveGraphs are the pre-counted graphs, one per domain shape, each cut to
// the same MoCHy-E pair work so that warming the cache costs every seed
// the same.
var serveGraphs = []struct {
	name   string
	domain generator.Domain
	nodes  int
	draws  int
}{
	{"coauth", generator.Coauthorship, 1500, 5000},
	{"contact", generator.Contact, 120, 2000},
	{"email", generator.Email, 80, 1500},
}

const servePairs = 1_200_000

const serveLiveEdges = 500

// serveState is one set-up round's daemon and expectations.
type serveState struct {
	d      *daemon
	graphs []*hypergraph.Hypergraph
	counts [][]float64 // setup exact counts per graph
	live   api.LiveCounts
	// callers are the closed-loop callers, built once so the window
	// reuses the connections the warm-up opened.
	callers []worker
	// wrong counts results that differ from what set-up established.
	wrong atomic.Int64
}

// setupServe starts a daemon, uploads and counts the graphs, seeds the
// live graph and runs a short warm-up. On error it stops the daemon.
func setupServe(ctx context.Context, seed int64) (_ *serveState, err error) {
	cfg := server.DefaultConfig()
	cfg.MaxWorkersPerJob = kernelWorkers
	d, err := startDaemon(server.New(cfg))
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = d.stop()
		}
	}()
	st := &serveState{d: d}
	c := d.newClient()
	for i, sg := range serveGraphs {
		g, err := workGraph(seed, int64(10+i), sg.domain, sg.nodes, sg.draws,
			func(w work) bool { return w.pairs >= servePairs })
		if err != nil {
			return nil, err
		}
		if _, err := c.UploadGraph(ctx, sg.name, g); err != nil {
			return nil, fmt.Errorf("upload %s: %w", sg.name, err)
		}
		res, err := c.Count(ctx, sg.name, api.CountRequest{Algorithm: api.AlgoExact, Workers: kernelWorkers})
		if err != nil {
			return nil, fmt.Errorf("warm count %s: %w", sg.name, err)
		}
		st.graphs = append(st.graphs, g)
		st.counts = append(st.counts, res.Counts)
	}
	gen := newEdgeGen(subSeed(seed, streamEdges, 0), 2000, 0, 1)
	edges := make([][]int32, serveLiveEdges)
	for i := range edges {
		edges[i] = gen.next()
	}
	if _, err := c.InsertEdges(ctx, "live", edges); err != nil {
		return nil, fmt.Errorf("seed live graph: %w", err)
	}
	if st.live, err = c.LiveCounts(ctx, "live"); err != nil {
		return nil, fmt.Errorf("live counts: %w", err)
	}
	// A short warm-up fills connection pools and lazily built paths. The
	// window continues each caller's op sequence where it stops.
	st.callers = st.workers(seed)
	lr := runLoad(ctx, st.callers, 0, 200, nil, serveClasses)
	if lr.failed > 0 {
		return nil, fmt.Errorf("warm-up: %v", lr.firstErr)
	}
	return st, nil
}

// serveWorker is one closed-loop caller with its own connection pool.
type serveWorker struct {
	st   *serveState
	c    *client.Client
	plan func() serveOp
}

func (st *serveState) workers(seed int64) []worker {
	ws := make([]worker, loadWorkers)
	for i := range ws {
		ws[i] = &serveWorker{st: st, c: st.d.newClient(), plan: servePlan(seed, i)}
	}
	return ws
}

func (w *serveWorker) next() (int, func(context.Context, opCtx) error) {
	op := w.plan()
	name := serveGraphs[op.graph].name
	if op.count {
		return serveCount, func(ctx context.Context, o opCtx) error {
			ctx = o.traceCtx(ctx)
			sp := o.span("client.count")
			res, err := w.c.Count(ctx, name, api.CountRequest{Algorithm: api.AlgoExact, Workers: kernelWorkers})
			sp.end()
			if err != nil {
				return err
			}
			w.expect(res.Cached && sameCounts(res.Counts, w.st.counts[op.graph]))
			return nil
		}
	}
	return serveRead, func(ctx context.Context, o opCtx) error {
		ctx = o.traceCtx(ctx)
		sp := o.span("client.stats")
		s, err := w.c.Stats(ctx, name)
		sp.end()
		if err != nil {
			return err
		}
		w.expect(s.NumEdges == w.st.graphs[op.graph].NumEdges())
		sp = o.span("client.live_counts")
		lc, err := w.c.LiveCounts(ctx, "live")
		sp.end()
		if err != nil {
			return err
		}
		w.expect(lc.Version == w.st.live.Version && sameCounts(lc.Counts, w.st.live.Counts))
		sp = o.span("client.graphs")
		gl, err := w.c.Graphs(ctx)
		sp.end()
		if err != nil {
			return err
		}
		w.expect(len(gl.Graphs) == len(serveGraphs) && len(gl.Live) == 1)
		return nil
	}
}

// expect tallies a result that differs from what set-up established.
func (w *serveWorker) expect(ok bool) {
	if !ok {
		w.st.wrong.Add(1)
	}
}

func runServe(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	st, rounds, err := setupRepeated(
		func(int) (*serveState, error) { return setupServe(ctx, cfg.seed) },
		func(st *serveState) { _ = st.d.stop() })
	if err != nil {
		return nil, err
	}
	out.setupTimes(rounds)
	defer st.d.stop()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	admin := st.d.newClient()
	before, err := scrape(ctx, admin)
	if err != nil {
		return nil, err
	}
	alloc0, gc0 := memCounters()
	lr := runLoad(ctx, st.callers, cfg.window(), 0, tr, serveClasses)
	alloc1, gc1 := memCounters()
	rss := peakRSSMB()
	after, err := scrape(ctx, admin)
	if err != nil {
		return nil, err
	}
	out.loadAccounting(&lr)
	out.check(st.wrong.Load() == 0, "serve: %d results differ from set-up (an uncached count, changed counts or metadata)", st.wrong.Load())

	counts, reads := lr.byClass(serveCount, nil).sorted(), lr.byClass(serveRead, nil).sorted()
	done := float64(len(lr.records))
	if done == 0 {
		return nil, fmt.Errorf("no operation completed: %v", lr.firstErr)
	}
	m := out.metrics
	m["peak_rss_mb"] = rss
	m["cpu_ms_per_op"] = ms(lr.cpu) / done
	m["ops_per_s"] = done / lr.wall.Seconds()
	m["main_p50_ms"] = ms(counts.quantile(0.5))
	m["side_p50_ms"] = ms(reads.quantile(0.5))
	out.note("serve: %d ops in %.1f s; %s; %s", len(lr.records), lr.wall.Seconds(),
		counts.summary("cached counts"), reads.summary("dashboard reads"))

	out.check(counterDelta(before, after, "mochyd_cache_misses") == 0, "serve: cache misses in the window; every count must hit")
	if !cfg.trace {
		return out, nil
	}

	spans, err := daemonLayers(ctx, admin, before, after, &lr, serveCount, alloc1-alloc0, gc1-gc0, tr, out)
	if err != nil {
		return nil, err
	}
	m["count_cached_p50_ms"] = ms(counts.quantile(0.5))
	m["count_cached_p99_ms"] = ms(counts.p99())
	m["read_p50_ms"] = ms(reads.quantile(0.5))
	m["read_p99_ms"] = ms(reads.p99())
	h := handlerMS(before, after)
	m["server.handler_ms.count"] = h[routeLabel(http.MethodPost, "/v1/graphs/{name}/count")]
	m["server.handler_ms.job"] = h[routeLabel(http.MethodGet, "/v1/jobs/{id}")]
	m["server.handler_ms.job_events"] = h[routeLabel(http.MethodGet, "/v1/jobs/{id}/events")]
	m["server.handler_ms.stats"] = h[routeLabel(http.MethodGet, "/v1/graphs/{name}/stats")]
	m["server.handler_ms.live_counts"] = h[routeLabel(http.MethodGet, "/v1/graphs/{name}/counts")]
	m["server.handler_ms.graphs"] = h[routeLabel(http.MethodGet, "/v1/graphs")]
	// A cached count is a submit, an event stream and a result poll; a
	// dashboard refresh is one request to each read route.
	countHandlers := m["server.handler_ms.count"] + m["server.handler_ms.job_events"] + m["server.handler_ms.job"]
	readHandlers := m["server.handler_ms.stats"] + m["server.handler_ms.live_counts"] + m["server.handler_ms.graphs"]
	m["client.transport_ms.count"] = ms(counts.mean()) - countHandlers
	m["client.transport_ms.read"] = ms(reads.mean()) - readHandlers
	return out, writeSpans(cfg.spansPath("serve"), spans)
}
