package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mochy/api"
	counting "mochy/internal/mochy"
	"mochy/internal/obs"
	"mochy/internal/pipeline"
	"mochy/internal/shardmap"
)

// Retention policy for finished jobs: a completed job stays pollable for
// jobRetain (so a client that lost its events stream can still collect the
// result), and at most jobMaxFinished finished jobs are kept so a burst of
// short jobs cannot grow the store without bound.
const (
	jobRetain      = 10 * time.Minute
	jobMaxFinished = 1024
)

// job is one asynchronous counting or profiling job. The v1 API hands out
// its ID from POST /graphs/{name}/count|profile, serves its state from
// GET /jobs/{id}, and streams its progress from GET /jobs/{id}/events.
type job struct {
	id    string
	seq   uint64 // creation order, for retention pruning and stable listing
	kind  string // api.JobKindCount, api.JobKindProfile or api.JobKindPipeline
	graph string
	trace string // trace id of the request that started the job

	mu          sync.Mutex
	state       string
	done, total int
	result      json.RawMessage
	errMsg      string
	created     time.Time
	started     time.Time
	finished    time.Time
	subs        map[chan api.JobEvent]struct{}

	// doneCh closes exactly once, when the job reaches a terminal state.
	doneCh chan struct{}
}

// snapshot renders the job as its wire representation.
func (j *job) snapshot() api.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := api.Job{
		ID:        j.id,
		Kind:      j.kind,
		Graph:     j.graph,
		Trace:     j.trace,
		State:     j.state,
		Done:      j.done,
		Total:     j.total,
		Result:    j.result,
		Error:     j.errMsg,
		CreatedAt: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		out.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		out.FinishedAt = &t
	}
	return out
}

// setRunning transitions queued -> running.
func (j *job) setRunning(now time.Time) {
	j.mu.Lock()
	j.state = api.JobRunning
	j.started = now
	j.mu.Unlock()
}

// progress records enumeration progress and fans it out to every events
// subscriber. Slow subscribers drop progress events rather than stall the
// counting job; the terminal event is never delivered this way (see the
// doneCh path in the events handler).
func (j *job) progress(done, total int) {
	j.mu.Lock()
	j.done, j.total = done, total
	ev := api.JobEvent{Type: api.EventProgress, Done: done, Total: total, Trace: j.trace}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// publish fans a non-terminal event (pipeline stage lifecycle, stage-stamped
// progress) out to every events subscriber, stamped with the job's trace id.
// Like progress, slow subscribers drop events rather than stall the job; the
// terminal event never travels this path.
func (j *job) publish(ev api.JobEvent) {
	j.mu.Lock()
	if ev.Type == api.EventProgress {
		j.done, j.total = ev.Done, ev.Total
	}
	ev.Trace = j.trace
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// finish moves the job to a terminal state: done with a result, or failed
// with an error message.
func (j *job) finish(result any, err error, now time.Time) {
	j.mu.Lock()
	j.finished = now
	if err != nil {
		j.state = api.JobFailed
		j.errMsg = err.Error()
	} else {
		raw, merr := json.Marshal(result)
		if merr != nil {
			j.state = api.JobFailed
			j.errMsg = fmt.Sprintf("encode result: %v", merr)
		} else {
			j.state = api.JobDone
			j.result = raw
		}
	}
	j.mu.Unlock()
	close(j.doneCh)
}

// terminalEvent renders the job's end as the final NDJSON event. Only valid
// after doneCh is closed.
func (j *job) terminalEvent() api.JobEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == api.JobFailed {
		return api.JobEvent{Type: api.EventError, Error: j.errMsg, Trace: j.trace}
	}
	return api.JobEvent{Type: api.EventResult, Result: j.result, Trace: j.trace}
}

// subscribe registers an events channel. The buffer absorbs progress bursts;
// overflow drops progress (never the terminal event, which travels via
// doneCh).
func (j *job) subscribe() chan api.JobEvent {
	ch := make(chan api.JobEvent, 16)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *job) unsubscribe(ch chan api.JobEvent) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// startJob marks j running; every job goroutine calls it first thing after
// deferring guardJob.
func (s *Server) startJob(j *job) {
	j.setRunning(s.jobs.now())
	if s.jobHook != nil {
		s.jobHook(j.kind)
	}
}

// guardJob is deferred at the top of every job goroutine. A panic anywhere in
// the job's own goroutine fails it with an internal error and counts it in
// mochyd_job_panics_total, instead of killing the daemon with every other
// job and graph in it. Panics in the goroutines a job starts (kernel
// workers, pipeline stages) come back as errors instead; see notePanic.
func (s *Server) guardJob(ctx context.Context, j *job) {
	r := recover()
	if r == nil {
		return
	}
	s.mets.jobPanics.Inc()
	s.logger.ErrorContext(ctx, "job panicked", "job", j.id, "kind", j.kind, "panic", fmt.Sprint(r), "stack", string(debug.Stack()))
	select {
	case <-j.doneCh:
		return // the panic came after the job had already finished
	default:
	}
	s.jobs.failed.Add(1)
	j.finish(nil, fmt.Errorf("internal error: %s job panicked: %v", j.kind, r), s.jobs.now())
}

// notePanic counts and logs a panic that a kernel worker or a pipeline stage
// recovered and handed back inside a job's error.
func (s *Server) notePanic(ctx context.Context, j *job, err error) {
	var stack []byte
	var kp *counting.PanicError
	var sp *pipeline.PanicError
	switch {
	case errors.As(err, &kp):
		stack = kp.Stack
	case errors.As(err, &sp):
		stack = sp.Stack
	default:
		return
	}
	s.mets.jobPanics.Inc()
	s.logger.ErrorContext(ctx, "job panicked", "job", j.id, "kind", j.kind, "error", err.Error(), "stack", string(stack))
}

// jobStore issues job IDs and retains finished jobs for a bounded window.
// The id table is hash-sharded so the per-request poll (GET /v1/jobs/{id})
// and job creation contend only within a shard instead of serializing every
// poller behind one store mutex.
type jobStore struct {
	seq  atomic.Uint64
	jobs *shardmap.Map[*job]

	nowMu sync.Mutex
	nowFn func() time.Time // injectable clock for retention tests

	// durations is the per-kind job latency histogram
	// (mochyd_job_duration_seconds); nil in bare test stores built without a
	// server's metrics registry.
	durations *obs.HistogramVec

	pruneMu   sync.Mutex   // one pruner at a time; creation never waits on one
	lastPrune atomic.Int64 // unix nanos of the last prune scan (store clock)

	started  atomic.Uint64
	finished atomic.Uint64
	failed   atomic.Uint64
}

func newJobStore() *jobStore {
	return &jobStore{
		jobs:  shardmap.NewMap[*job](0),
		nowFn: time.Now,
	}
}

// now reads the store clock (swappable by retention tests via setNow).
func (st *jobStore) now() time.Time {
	st.nowMu.Lock()
	defer st.nowMu.Unlock()
	return st.nowFn()
}

// setNow swaps the store clock; tests only.
func (st *jobStore) setNow(fn func() time.Time) {
	st.nowMu.Lock()
	st.nowFn = fn
	st.nowMu.Unlock()
}

// observe records a finished job's wall-clock duration in its kind's
// latency histogram (surfaced as mochyd_job_duration_seconds on
// /v1/metrics).
func (st *jobStore) observe(kind string, d time.Duration) {
	if st.durations != nil {
		st.durations.With(kind).Observe(d.Seconds())
	}
}

// create registers a new queued job, stamped with the creating request's
// trace id (empty when untraced).
func (st *jobStore) create(kind, graph, trace string) *job {
	st.prune()
	seq := st.seq.Add(1)
	j := &job{
		id:      fmt.Sprintf("j%d", seq),
		seq:     seq,
		kind:    kind,
		graph:   graph,
		trace:   trace,
		state:   api.JobQueued,
		created: st.now(),
		subs:    make(map[chan api.JobEvent]struct{}),
		doneCh:  make(chan struct{}),
	}
	st.jobs.Store(j.id, j)
	st.started.Add(1)
	return j
}

func (st *jobStore) get(id string) (*job, bool) {
	return st.jobs.Get(id)
}

// all snapshots the retained jobs in creation order.
func (st *jobStore) all() []*job {
	var jobs []*job
	st.jobs.Range(func(_ string, j *job) bool {
		jobs = append(jobs, j)
		return true
	})
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	return jobs
}

// list snapshots every retained job, newest first.
func (st *jobStore) list() []api.Job {
	jobs := st.all()
	out := make([]api.Job, len(jobs))
	for i, j := range jobs {
		out[len(jobs)-1-i] = j.snapshot()
	}
	return out
}

// inflight counts jobs that are queued or running.
func (st *jobStore) inflight() int {
	n := 0
	st.jobs.Range(func(_ string, j *job) bool {
		if !jobFinished(j) {
			n++
		}
		return true
	})
	return n
}

// jobPruneInterval bounds how often the create path pays a full prune scan.
// Between scans the store can exceed its bounds by at most one interval's
// worth of finishes — acceptable slack for turning every create's O(n)
// cross-shard walk into a once-a-second one.
const jobPruneInterval = time.Second

// prune drops finished jobs older than jobRetain, and the oldest finished
// jobs beyond jobMaxFinished. In-flight jobs are never pruned. Creates
// racing a prune just skip it — the next due create prunes again, so the
// store stays within one burst of its bounds.
func (st *jobStore) prune() {
	if !st.pruneMu.TryLock() {
		return
	}
	defer st.pruneMu.Unlock()
	now := st.now()
	if now.UnixNano()-st.lastPrune.Load() < int64(jobPruneInterval) {
		return
	}
	st.lastPrune.Store(now.UnixNano())
	cutoff := now.Add(-jobRetain)
	finished := 0
	anyOld := false
	jobs := st.all()
	for _, j := range jobs {
		if !jobFinished(j) {
			continue
		}
		finished++
		j.mu.Lock()
		if j.finished.Before(cutoff) {
			anyOld = true
		}
		j.mu.Unlock()
	}
	if !anyOld && finished <= jobMaxFinished {
		return
	}
	for _, j := range jobs {
		if !jobFinished(j) {
			continue
		}
		j.mu.Lock()
		old := j.finished.Before(cutoff)
		j.mu.Unlock()
		if old || finished > jobMaxFinished {
			st.jobs.Delete(j.id)
			finished--
		}
	}
}

func jobFinished(j *job) bool {
	select {
	case <-j.doneCh:
		return true
	default:
		return false
	}
}
