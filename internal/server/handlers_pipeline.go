package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mochy/api"
	"mochy/internal/cp"
	counting "mochy/internal/mochy"
	"mochy/internal/obs"
	"mochy/internal/pipeline"
)

// handleStartPipeline serves POST /v1/graphs/{name}/pipeline: the declarative
// multi-stage analytics plan. The whole plan is validated (stage kinds,
// dependency acyclicity, per-stage parameters, the configured stage cap)
// before the 202, so a bad plan is a 400 here, never a failed job; the
// backpressure budget applies exactly as it does to count and profile jobs.
func (s *Server) handleStartPipeline(w http.ResponseWriter, r *http.Request, p params) {
	e, ok := s.registry.Get(p["name"])
	if !ok {
		writeError(w, http.StatusNotFound, "graph %q not found", p["name"])
		return
	}
	var req api.PipelineRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	plan, err := pipeline.Parse(&req, s.cfg.PipelineMaxStages)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid plan: %v", err)
		return
	}
	if s.overBudget() {
		s.writeBackpressure(w)
		return
	}
	j := s.jobs.create(api.JobKindPipeline, e.Name, obs.TraceID(r.Context()))
	go s.runPipelineJob(obs.InheritTrace(s.baseCtx, r.Context()), j, e, plan)
	s.writeJob(w, http.StatusAccepted, j)
}

// runPipelineJob executes one asynchronous pipeline: the executor publishes
// stage_start / progress / stage_done events through the job, and the job
// finishes with the full PipelineResult or the first failing stage's error.
func (s *Server) runPipelineJob(ctx context.Context, j *job, e *Entry, plan *pipeline.Plan) {
	defer s.guardJob(ctx, j)
	start := time.Now()
	defer func() { s.jobs.observe(j.kind, time.Since(start)) }()
	ctx, span := s.tracer.StartSpan(ctx, "job.pipeline")
	span.SetAttr("job", j.id)
	span.SetAttr("graph", e.Name)
	span.SetAttr("stages", strconv.Itoa(len(plan.Stages)))
	s.startJob(j)
	res, err := pipeline.Run(ctx, s.pipelineEnv(e, j), plan)
	if err != nil {
		s.notePanic(ctx, j, err)
		s.jobs.failed.Add(1)
		j.finish(nil, err, s.jobs.now())
		span.SetAttr("error", err.Error())
		span.End()
		s.logger.WarnContext(ctx, "pipeline job failed", "job", j.id, "graph", e.Name, "error", err.Error())
		return
	}
	s.jobs.finished.Add(1)
	j.finish(res, nil, s.jobs.now())
	span.End()
}

// pipelineEnv binds the executor to one graph entry and this server's pool,
// cache, tracer, metrics and job-event fan-out. Count and profile stages go
// through the server's own cached paths, so they share cache entries (and
// flight collapsing) with directly posted count/profile jobs.
func (s *Server) pipelineEnv(e *Entry, j *job) *pipeline.Env {
	return &pipeline.Env{
		Graph:      e.Graph,
		Proj:       e.Projection(),
		Name:       e.Name,
		GraphID:    fmt.Sprintf("%s#%d", e.Name, e.Gen),
		MaxWorkers: s.cfg.MaxWorkersPerJob,
		// Stages that leave workers unset get the same default as the count
		// endpoints: min(GOMAXPROCS, MaxWorkersPerJob).
		DefaultWorkers: s.clampWorkers(0),
		Pool:           s.pool,
		Cache:          &pipelineCache{s: s, e: e},
		Tracer:         s.tracer,
		Observe: func(kind string, d time.Duration) {
			s.mets.pipelineStage.With(kind).Observe(d.Seconds())
		},
		Events: j.publish,
		Count: func(ctx context.Context, algo string, samples int, seed int64, workers int, progress func(done, total int)) (counting.Counts, bool, error) {
			return s.countProgress(ctx, e, algo, samples, seed, workers, progress)
		},
		Profile: func(ctx context.Context, randomizations int, seed int64, workers int) (cp.Profile, bool, error) {
			return s.profile(ctx, e, randomizations, seed, workers)
		},
	}
}

// pipelineCache adapts the server's partitioned result cache to the
// executor's Cache interface: writes go through putIfCurrent so a stage
// finishing after its graph was replaced cannot re-insert a dead generation's
// entry, and ensemble-based results take the sampling TTL.
type pipelineCache struct {
	s *Server
	e *Entry
}

func (c *pipelineCache) Get(key string) (any, bool) { return c.s.cache.Get(key) }

func (c *pipelineCache) Put(key string, v any, randomized bool, cost time.Duration) {
	ttl := time.Duration(0)
	if randomized {
		ttl = c.s.samplingTTL()
	}
	c.s.putIfCurrent(c.e, key, v, ttl, cost)
}
