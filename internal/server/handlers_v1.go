package server

import (
	"context"
	"encoding/json"
	"fmt"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mochy/api"
	"mochy/internal/hypergraph"
	"mochy/internal/obs"
)

// contentType extracts the media type of a request body, defaulting to
// JSON (the bootstrap API's only transport) when absent or malformed.
func contentType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return api.ContentTypeJSON
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return api.ContentTypeJSON
	}
	return mt
}

// negotiateDownload picks the response transport for a graph download from
// the Accept header: the first supported media range wins, and absent or
// wildcard Accept selects JSON.
func negotiateDownload(r *http.Request) (string, error) {
	accept := r.Header.Get("Accept")
	if accept == "" {
		return api.ContentTypeJSON, nil
	}
	for _, part := range strings.Split(accept, ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil {
			continue
		}
		switch mt {
		case api.ContentTypeBinary, api.ContentTypeText, api.ContentTypeJSON:
			return mt, nil
		case "*/*", "application/*", "text/*":
			return api.ContentTypeJSON, nil
		}
	}
	return "", fmt.Errorf("no supported media type in Accept %q (want %s, %s or %s)",
		accept, api.ContentTypeBinary, api.ContentTypeText, api.ContentTypeJSON)
}

// handleUploadGraph serves PUT /v1/graphs/{name}: the content-negotiated
// graph upload. Binary bodies reuse the hypergraph binary codec and skip
// text parsing entirely — the transport multi-GB graphs should ride.
func (s *Server) handleUploadGraph(w http.ResponseWriter, r *http.Request, p params) {
	name := p["name"]
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes+16)
	switch ct := contentType(r); ct {
	case api.ContentTypeBinary:
		g, err := api.ReadGraph(body, maxUploadBytes, maxGraphNodes)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid binary graph: %v", err)
			return
		}
		res, rerr := s.registerGraph(name, g)
		s.writeRegistered(w, res, rerr)
	case api.ContentTypeText:
		g, err := hypergraph.ParseLimit(body, maxGraphNodes)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid hypergraph text: %v", err)
			return
		}
		res, rerr := s.registerGraph(name, g)
		s.writeRegistered(w, res, rerr)
	case api.ContentTypeJSON:
		var doc api.GraphDoc
		if err := json.NewDecoder(body).Decode(&doc); err != nil {
			writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
			return
		}
		g, err := buildGraphDoc(&doc)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid hypergraph: %v", err)
			return
		}
		res, rerr := s.registerGraph(name, g)
		s.writeRegistered(w, res, rerr)
	default:
		writeError(w, http.StatusUnsupportedMediaType,
			"unsupported Content-Type %q (want %s, %s or %s)",
			ct, api.ContentTypeBinary, api.ContentTypeText, api.ContentTypeJSON)
	}
}

// handleDownloadGraph serves GET /v1/graphs/{name}: the content-negotiated
// graph download (binary, text, or the JSON document form).
func (s *Server) handleDownloadGraph(w http.ResponseWriter, r *http.Request, p params) {
	e, ok := s.registry.Get(p["name"])
	if !ok {
		writeError(w, http.StatusNotFound, "graph %q not found", p["name"])
		return
	}
	mt, err := negotiateDownload(r)
	if err != nil {
		writeError(w, http.StatusNotAcceptable, "%v", err)
		return
	}
	switch mt {
	case api.ContentTypeBinary:
		w.Header().Set("Content-Type", api.ContentTypeBinary)
		if err := api.WriteGraph(w, e.Graph); err != nil {
			// Headers are out; all we can do is drop the connection.
			return
		}
	case api.ContentTypeText:
		w.Header().Set("Content-Type", api.ContentTypeText)
		_ = e.Graph.Write(w)
	case api.ContentTypeJSON:
		doc := api.GraphDoc{Name: e.Name, NumNodes: e.Graph.NumNodes(), Edges: make([][]int32, e.Graph.NumEdges())}
		for i := range doc.Edges {
			doc.Edges[i] = e.Graph.Edge(i)
		}
		writeJSON(w, http.StatusOK, doc)
	}
}

// handleStartCount serves POST /v1/graphs/{name}/count: it validates the
// request, applies backpressure, and answers 202 with a job resource whose
// progress streams from /v1/jobs/{id}/events.
func (s *Server) handleStartCount(w http.ResponseWriter, r *http.Request, p params) {
	e, ok := s.registry.Get(p["name"])
	if !ok {
		writeError(w, http.StatusNotFound, "graph %q not found", p["name"])
		return
	}
	var req api.CountRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if err := validateCount(&req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.overBudget() {
		s.writeBackpressure(w)
		return
	}
	workers := s.clampWorkers(req.Workers)
	j := s.jobs.create(api.JobKindCount, e.Name, obs.TraceID(r.Context()))
	// Jobs outlive the request that starts them (the 202 returns now), so
	// they run under the server's lifetime context, not r.Context() — but
	// they inherit the request's trace identity, so the job's spans and
	// logs join the trace that started it.
	go s.runCountJob(obs.InheritTrace(s.baseCtx, r.Context()), j, e, req.Algorithm, req.Samples, req.Seed, workers)
	s.writeJob(w, http.StatusAccepted, j)
}

// runCountJob executes one asynchronous count, publishing ~1%-granularity
// progress events for exact counts and finishing the job with a CountResult
// or an error.
func (s *Server) runCountJob(ctx context.Context, j *job, e *Entry, algo string, samples int, seed int64, workers int) {
	defer s.guardJob(ctx, j)
	start := time.Now()
	defer func() { s.jobs.observe(j.kind, time.Since(start)) }()
	ctx, span := s.tracer.StartSpan(ctx, "job.count")
	span.SetAttr("job", j.id)
	span.SetAttr("graph", e.Name)
	span.SetAttr("algorithm", algo)
	s.startJob(j)
	var progress func(done, total int)
	if algo == algoExact {
		progress = throttledProgress(e.Graph.NumEdges(), j.progress)
	}
	c, cached, err := s.countProgress(ctx, e, algo, samples, seed, workers, progress)
	if err != nil {
		s.notePanic(ctx, j, err)
		s.jobs.failed.Add(1)
		j.finish(nil, err, s.jobs.now())
		span.SetAttr("error", err.Error())
		span.End()
		s.logger.WarnContext(ctx, "count job failed", "job", j.id, "graph", e.Name, "algorithm", algo, "error", err.Error())
		return
	}
	s.jobs.finished.Add(1)
	j.finish(toCountResult(e.Name, algo, c, cached, time.Since(start)), nil, s.jobs.now())
	span.SetAttr("cached", strconv.FormatBool(cached))
	span.End()
}

// handleStartProfile serves POST /v1/graphs/{name}/profile as a job.
func (s *Server) handleStartProfile(w http.ResponseWriter, r *http.Request, p params) {
	e, ok := s.registry.Get(p["name"])
	if !ok {
		writeError(w, http.StatusNotFound, "graph %q not found", p["name"])
		return
	}
	var req api.ProfileRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if req.Randomizations == 0 {
		req.Randomizations = 3
	}
	if req.Randomizations < 1 {
		writeError(w, http.StatusBadRequest, "randomizations must be positive")
		return
	}
	if s.overBudget() {
		s.writeBackpressure(w)
		return
	}
	workers := s.clampWorkers(req.Workers)
	j := s.jobs.create(api.JobKindProfile, e.Name, obs.TraceID(r.Context()))
	go s.runProfileJob(obs.InheritTrace(s.baseCtx, r.Context()), j, e, req.Randomizations, req.Seed, workers)
	s.writeJob(w, http.StatusAccepted, j)
}

// runProfileJob executes one asynchronous characteristic profile.
func (s *Server) runProfileJob(ctx context.Context, j *job, e *Entry, randomizations int, seed int64, workers int) {
	defer s.guardJob(ctx, j)
	start := time.Now()
	defer func() { s.jobs.observe(j.kind, time.Since(start)) }()
	ctx, span := s.tracer.StartSpan(ctx, "job.profile")
	span.SetAttr("job", j.id)
	span.SetAttr("graph", e.Name)
	s.startJob(j)
	prof, cached, err := s.profile(ctx, e, randomizations, seed, workers)
	if err != nil {
		s.notePanic(ctx, j, err)
		s.jobs.failed.Add(1)
		j.finish(nil, err, s.jobs.now())
		span.SetAttr("error", err.Error())
		span.End()
		s.logger.WarnContext(ctx, "profile job failed", "job", j.id, "graph", e.Name, "error", err.Error())
		return
	}
	s.jobs.finished.Add(1)
	defer span.End()
	j.finish(api.ProfileResult{
		Graph:          e.Name,
		Randomizations: randomizations,
		Seed:           seed,
		Profile:        prof[:],
		Norm:           prof.Norm(),
		Cached:         cached,
		ElapsedMS:      float64(time.Since(start).Microseconds()) / 1000,
	}, nil, s.jobs.now())
}

// writeJob renders a job resource with its canonical Location.
func (s *Server) writeJob(w http.ResponseWriter, code int, j *job) {
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, code, j.snapshot())
}

// handleJobs serves GET /v1/jobs: every retained job, newest first.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request, _ params) {
	writeJSON(w, http.StatusOK, api.JobList{Jobs: s.jobs.list()})
}

// handleJob serves GET /v1/jobs/{id}: the poll half of the job protocol.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, p params) {
	j, ok := s.jobs.get(p["id"])
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", p["id"])
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleJobEvents serves GET /v1/jobs/{id}/events: an NDJSON stream of
// progress events followed by exactly one terminal result or error event.
// Subscribing to a finished job replays the terminal event immediately.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, p params) {
	j, ok := s.jobs.get(p["id"])
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", p["id"])
		return
	}
	w.Header().Set("Content-Type", api.ContentTypeNDJSON)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the response head out now: a subscriber to a still-queued
		// job must see the 200 and start reading before the first event,
		// not block behind it.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	emit := func(ev api.JobEvent) {
		_ = enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}

	sub := j.subscribe()
	defer j.unsubscribe(sub)
	for {
		select {
		case ev := <-sub:
			emit(ev)
		case <-j.doneCh:
			// Drain progress that raced the finish so the terminal event
			// stays last on the wire.
			for {
				select {
				case ev := <-sub:
					emit(ev)
					continue
				default:
				}
				break
			}
			emit(j.terminalEvent())
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics serves GET /v1/metrics: the full Prometheus text exposition
// rendered by the obs registry. Every family mochyd exposes — request,
// job, cache, kernel, store, and runtime — registers there; this handler
// owns no metric lines of its own. Mirrored gauges are refreshed by the
// registry's scrape hook (see collectMetrics) before rendering.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ params) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.mets.reg.WriteProm(w)
}
