package server

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"mochy/api"
	"mochy/internal/obs"
)

// router dispatches requests through an explicit method + path-pattern
// table: every endpoint is one registered route, patterns bind named
// parameters ("/v1/graphs/{name}/edges/{id}"), and unmatched requests get a
// uniform 404/405 treatment — no strings.Split handlers deciding routing
// case by case. The router is also the observability middleware: every
// request gets a trace id (inbound X-Mochy-Trace or freshly minted, echoed
// back on the response), a request span, a per-route latency observation
// (whose count is the route's request count), and a status-code-labeled
// response counter.
type router struct {
	routes    []*route
	unmatched *obs.Counter // requests that hit no route at all
	tracer    *obs.Tracer
	responses *obs.CounterVec
}

type route struct {
	method  string
	label   string // "METHOD /pattern": route label on metrics and spans
	segs    []routeSeg
	handler func(http.ResponseWriter, *http.Request, params)
	// duration is this route's pre-resolved histogram cell, so the
	// per-request cost is an atomic add, not a label lookup.
	duration *obs.Histogram
}

type routeSeg struct {
	literal string // empty for a parameter segment
	param   string // parameter name for "{param}" segments
}

// params carries the values bound by a pattern's parameter segments.
type params map[string]string

func newRouter(m *serverMetrics, tracer *obs.Tracer) *router {
	return &router{
		unmatched: m.unmatched,
		tracer:    tracer,
		responses: m.responses,
	}
}

// handle registers one route. Pattern segments are either literals or
// "{param}" placeholders; placeholders match any single non-empty segment.
func (rt *router) handle(m *serverMetrics, method, pattern string, h func(http.ResponseWriter, *http.Request, params)) {
	parts := strings.Split(strings.TrimPrefix(pattern, "/"), "/")
	segs := make([]routeSeg, len(parts))
	for i, p := range parts {
		if strings.HasPrefix(p, "{") && strings.HasSuffix(p, "}") {
			segs[i] = routeSeg{param: p[1 : len(p)-1]}
		} else {
			segs[i] = routeSeg{literal: p}
		}
	}
	label := method + " " + pattern
	rt.routes = append(rt.routes, &route{
		method:  method,
		label:   label,
		segs:    segs,
		handler: h,
		// Resolving the cell here also makes every route render from the
		// first scrape with a 0 count.
		duration: m.httpDuration.With(label),
	})
}

// match reports whether the path segments satisfy the route's pattern,
// binding parameters into p.
func (r *route) match(segs []string, p params) bool {
	if len(segs) != len(r.segs) {
		return false
	}
	for i, s := range r.segs {
		if s.param != "" {
			if segs[i] == "" {
				return false
			}
			continue
		}
		if s.literal != segs[i] {
			return false
		}
	}
	for i, s := range r.segs {
		if s.param != "" {
			p[s.param] = segs[i]
		}
	}
	return true
}

// statusWriter captures the response status code for the per-route response
// counter and the request span. It always implements http.Flusher —
// forwarding when the underlying writer supports it — because the NDJSON
// streaming handlers flush after every event.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP dispatches to the route table: an exact method+pattern match
// runs the handler; a path that matches only other methods answers 405 with
// an Allow header; anything else is 404. Matched requests run under a traced
// context and leave a request span plus latency/status observations behind.
func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Every request — matched or not — gets a trace identity: a valid
	// inbound X-Mochy-Trace is adopted (so client SDK traces correlate),
	// anything else is replaced by a fresh id. The id is echoed on the
	// response unconditionally; recording spans is separately gated by the
	// tracer, so disabling the flight recorder never changes the header
	// contract.
	id := r.Header.Get(api.TraceHeader)
	if !obs.ValidTraceID(id) {
		id = obs.NewTraceID()
	}
	w.Header().Set(api.TraceHeader, id)
	ctx := obs.WithTraceID(r.Context(), id)

	segs := strings.Split(strings.TrimPrefix(r.URL.Path, "/"), "/")
	p := make(params, 2)
	var allowed []string
	for _, rte := range rt.routes {
		if !rte.match(segs, p) {
			continue
		}
		if rte.method != r.Method {
			allowed = append(allowed, rte.method)
			continue
		}
		// StartID instead of StartSpan: the router already brackets the
		// handler with its own clock reads for the latency histogram, so
		// the request span reuses them and skips the Span allocation.
		sctx, sid, parent := rt.tracer.StartID(ctx)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		rte.handler(sw, r.WithContext(sctx), p)
		end := time.Now()
		rte.duration.Observe(end.Sub(start).Seconds())
		code := strconv.Itoa(sw.code)
		rt.responses.With(rte.label, code).Inc()
		if sid != 0 {
			rt.tracer.RecordSpanID(sctx, sid, parent, rte.label, start, end,
				obs.Attr{Key: "status", Value: code})
		}
		return
	}
	if len(allowed) > 0 {
		sort.Strings(allowed)
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	rt.unmatched.Inc()
	writeError(w, http.StatusNotFound, "no route for %s %s", r.Method, r.URL.Path)
}
