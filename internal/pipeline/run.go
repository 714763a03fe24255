package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"mochy/api"
	"mochy/internal/cp"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/obs"
	"mochy/internal/projection"
)

// PanicError is the run error when a stage goroutine panicked: Run recovers
// the panic so one faulty stage fails its run instead of the process, and
// keeps the stack for the caller to log.
type PanicError struct {
	Stage string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("internal error: stage %q panicked: %v", e.Stage, e.Value)
}

// Pool admits stage compute into the server's bounded job pool. Stages
// acquire a slot only around their compute (never across event emission), so
// a pipeline waiting on a saturated pool does not hold capacity.
type Pool interface {
	Acquire(ctx context.Context) error
	Release()
}

// Cache stores stage results keyed by graph identity + stage parameters.
// randomized marks ensemble-based results that should take the server's
// sampling TTL; cost feeds cost-weighted eviction.
type Cache interface {
	Get(key string) (any, bool)
	Put(key string, v any, randomized bool, cost time.Duration)
}

// Env binds a validated plan to one graph and the server's machinery. Count
// and Profile delegate to the server's existing cached compute paths (pool
// admission, request collapsing, result cache, count persistence), so a
// pipeline count stage and a direct POST /count share cache entries; the
// analytics stages implemented here cache through Cache under "pipe|" keys.
type Env struct {
	Graph *hypergraph.Hypergraph
	Proj  projection.Projector
	// Name is the graph's registered name, echoed in stage payloads.
	Name string
	// GraphID is the cache-identity prefix "name#generation": keys built
	// from it die with the generation, exactly like count/profile keys.
	GraphID string
	// MaxWorkers caps per-stage worker parameters.
	MaxWorkers int
	// DefaultWorkers resolves a stage's unset (0) workers parameter; 0 falls
	// back to MaxWorkers. The server sets it to min(GOMAXPROCS, MaxWorkers),
	// matching the count endpoints' default.
	DefaultWorkers int

	Pool   Pool
	Cache  Cache
	Tracer *obs.Tracer
	// Observe records one finished stage's wall-clock duration per stage
	// kind (mochyd_pipeline_stage_duration_seconds); nil skips.
	Observe func(kind string, d time.Duration)
	// Events receives stage lifecycle and progress events; nil skips.
	Events func(ev api.JobEvent)

	// Count runs (or serves from cache) one count on the bound graph.
	Count func(ctx context.Context, algo string, samples int, seed int64, workers int, progress func(done, total int)) (counting.Counts, bool, error)
	// Profile runs (or serves from cache) one characteristic profile.
	Profile func(ctx context.Context, randomizations int, seed int64, workers int) (cp.Profile, bool, error)
}

// emit publishes one event if the env has a sink.
func (env *Env) emit(ev api.JobEvent) {
	if env.Events != nil {
		env.Events(ev)
	}
}

// workers clamps a stage's workers parameter to [1, MaxWorkers]. An unset
// parameter (0 or negative) resolves to DefaultWorkers when the env sets
// one, else MaxWorkers.
func (env *Env) workers(w int) int {
	if w < 1 {
		w = env.DefaultWorkers
		if w < 1 {
			w = env.MaxWorkers
		}
	}
	if w > env.MaxWorkers {
		return env.MaxWorkers
	}
	return w
}

// exactStore shares completed count stages' exact counts with dependent
// stages. Independent DAG branches run concurrently, so one branch may write
// while another reads; the mutex makes the map safe without imposing any
// ordering beyond the plan's own dependency edges.
type exactStore struct {
	mu sync.Mutex
	m  map[string]*counting.Counts
}

func (s *exactStore) get(id string) (*counting.Counts, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.m[id]
	return c, ok
}

func (s *exactStore) put(id string, c *counting.Counts) {
	s.mu.Lock()
	s.m[id] = c
	s.mu.Unlock()
}

// Run executes a validated plan against env's graph. Independent DAG
// branches fan out concurrently: every stage starts as soon as the stages it
// names in After have completed, and per-stage compute still passes through
// the server's bounded pool, so a wide plan gains wall-clock without
// exceeding the server's global compute budget. The result carries every
// stage's payload in the plan's topological order regardless of completion
// order; the first stage failure cancels the remaining stages and aborts the
// run with an error naming the stage.
func Run(ctx context.Context, env *Env, plan *Plan) (api.PipelineResult, error) {
	start := time.Now()
	n := len(plan.Stages)
	out := api.PipelineResult{Graph: env.Name, Stages: make([]api.StageResult, 0, n)}
	index := make(map[string]int, n)
	for i, st := range plan.Stages {
		index[st.ID] = i
	}
	// exact holds the exact counts produced by completed count stages, so a
	// dependent null_model stage reuses them even when the result cache is
	// disabled.
	exact := &exactStore{m: make(map[string]*counting.Counts, n)}

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var (
		mu       sync.Mutex
		firstErr error
		results  = make([]*api.StageResult, n)
		done     = make([]chan struct{}, n) // closed when stage i succeeds
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel(err)
	}
	for i := range done {
		done[i] = make(chan struct{})
	}
	for i, st := range plan.Stages {
		wg.Add(1)
		go func(i int, st *Stage) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fail(&PanicError{Stage: st.ID, Value: r, Stack: debug.Stack()})
				}
			}()
			for _, dep := range st.After {
				select {
				case <-done[index[dep]]:
				case <-runCtx.Done():
					return
				}
			}
			if runCtx.Err() != nil {
				return
			}
			env.emit(api.JobEvent{Type: api.EventStageStart, Stage: st.ID, Kind: st.Kind})
			sctx, span := env.Tracer.StartSpan(runCtx, "stage."+st.Kind)
			span.SetAttr("stage", st.ID)
			t0 := time.Now()
			payload, counts, cached, err := runStage(sctx, env, st, exact)
			elapsed := time.Since(t0)
			if env.Observe != nil {
				env.Observe(st.Kind, elapsed)
			}
			if err != nil {
				span.SetAttr("error", err.Error())
				span.End()
				fail(fmt.Errorf("stage %q (%s): %w", st.ID, st.Kind, err))
				return
			}
			if cached {
				span.SetAttr("cached", "true")
			}
			span.End()
			raw, merr := json.Marshal(payload)
			if merr != nil {
				fail(fmt.Errorf("stage %q (%s): encode result: %v", st.ID, st.Kind, merr))
				return
			}
			ms := float64(elapsed.Microseconds()) / 1000
			mu.Lock()
			results[i] = &api.StageResult{ID: st.ID, Kind: st.Kind, Cached: cached, ElapsedMS: ms, Result: raw}
			mu.Unlock()
			if counts != nil {
				exact.put(st.ID, counts)
			}
			env.emit(api.JobEvent{Type: api.EventStageDone, Stage: st.ID, Kind: st.Kind, Cached: cached, ElapsedMS: ms})
			close(done[i])
		}(i, st)
	}
	wg.Wait()
	// Completed stages report in topological order whatever order branches
	// finished in.
	for _, r := range results {
		if r != nil {
			out.Stages = append(out.Stages, *r)
		}
	}
	if firstErr != nil {
		return out, firstErr
	}
	// No stage failed but the parent context may have been cancelled between
	// dependency waits (every stage returned silently in that case).
	if err := ctx.Err(); err != nil && len(out.Stages) < n {
		return out, context.Cause(ctx)
	}
	out.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return out, nil
}

// runStage dispatches one stage. It returns the wire payload, the exact
// counts when the stage produced them (for dependents), and whether the
// result came from a cache.
func runStage(ctx context.Context, env *Env, st *Stage, exact *exactStore) (payload any, counts *counting.Counts, cached bool, err error) {
	switch p := st.Params.(type) {
	case *api.CountRequest:
		return runCountStage(ctx, env, st, p)
	case *api.NullModelParams:
		r, cached, err := runNullModel(ctx, env, st, p, exact)
		return r, nil, cached, err
	case *api.RankParams:
		r, cached, err := runRank(ctx, env, p)
		return r, nil, cached, err
	case *api.AnomalyParams:
		r, cached, err := runAnomaly(ctx, env, p)
		return r, nil, cached, err
	case *api.ClusterParams:
		r, cached, err := runCluster(ctx, env, p)
		return r, nil, cached, err
	case *api.TemporalParams:
		r, cached, err := runTemporal(ctx, env, p)
		return r, nil, cached, err
	case *api.ProfileRequest:
		r, cached, err := runProfileStage(ctx, env, p)
		return r, nil, cached, err
	default:
		return nil, nil, false, fmt.Errorf("unhandled params type %T", st.Params)
	}
}

// runCountStage serves a count stage through the server's count path,
// streaming throttled progress events stamped with the stage id.
func runCountStage(ctx context.Context, env *Env, st *Stage, p *api.CountRequest) (any, *counting.Counts, bool, error) {
	start := time.Now()
	var progress func(done, total int)
	if p.Algorithm == api.AlgoExact && env.Events != nil {
		progress = throttle(env.Graph.NumEdges(), func(done, total int) {
			env.emit(api.JobEvent{Type: api.EventProgress, Stage: st.ID, Done: done, Total: total})
		})
	}
	c, cached, err := env.Count(ctx, p.Algorithm, p.Samples, p.Seed, env.workers(p.Workers), progress)
	if err != nil {
		return nil, nil, false, err
	}
	res := api.CountResult{
		Graph:        env.Name,
		Algorithm:    p.Algorithm,
		Counts:       c[:],
		Total:        c.Total(),
		OpenFraction: c.OpenFraction(),
		Cached:       cached,
		ElapsedMS:    float64(time.Since(start).Microseconds()) / 1000,
	}
	var counts *counting.Counts
	if p.Algorithm == api.AlgoExact {
		counts = &c
	}
	return res, counts, cached, nil
}

// runProfileStage serves a profile stage through the server's profile path.
func runProfileStage(ctx context.Context, env *Env, p *api.ProfileRequest) (any, bool, error) {
	if env.Graph.TotalIncidence() == 0 {
		return nil, false, fmt.Errorf("graph has no incidences to randomize")
	}
	start := time.Now()
	prof, cached, err := env.Profile(ctx, p.Randomizations, p.Seed, env.workers(p.Workers))
	if err != nil {
		return nil, false, err
	}
	return api.ProfileResult{
		Graph:          env.Name,
		Randomizations: p.Randomizations,
		Seed:           p.Seed,
		Profile:        prof[:],
		Norm:           prof.Norm(),
		Cached:         cached,
		ElapsedMS:      float64(time.Since(start).Microseconds()) / 1000,
	}, cached, nil
}

// throttle is the shared ~1%-granularity progress limiter: huge enumerations
// must not emit one event per stride, and progress never goes backwards (the
// mutex makes decide-and-emit atomic across kernel workers).
func throttle(total int, emit func(done, total int)) func(done, total int) {
	step := total / 100
	if step < 1 {
		step = 1
	}
	last := 0
	var mu sync.Mutex
	return func(done, tot int) {
		mu.Lock()
		if done >= last+step && done < tot {
			last = done
			emit(done, tot)
		}
		mu.Unlock()
	}
}
