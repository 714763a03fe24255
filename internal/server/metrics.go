package server

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"mochy/api"
	"mochy/internal/obs"
)

// Histogram bucket bounds, all in seconds.
var (
	// jobDurationBounds covers sub-millisecond cache hits through
	// multi-minute exact counts on paper-scale graphs.
	jobDurationBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30, 60, 300}
	// kernelStageBounds covers pure compute time per counting kernel run.
	kernelStageBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30, 60, 300}
	// requestDurationBounds covers HTTP handler latency: most requests are
	// registry/cache reads in the microseconds, the tail is sync counts.
	requestDurationBounds = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30}
)

// serverMetrics is every metric family mochyd exposes on /v1/metrics, all
// owned by one obs.Registry. Hot-path instruments (request counters, job
// duration histograms, kernel timings) are incremented natively at the call
// site; point-in-time gauges and counters owned by other subsystems (cache,
// pool, store) are refreshed once per scrape by the collect hook, so one
// scrape costs one Stats() sweep per subsystem, exactly like the old
// hand-rolled exposition.
type serverMetrics struct {
	reg *obs.Registry

	uptime     *obs.Gauge
	buildInfo  *obs.GaugeVec
	gomaxprocs *obs.Gauge
	goroutines *obs.Gauge
	memAlloc   *obs.Gauge
	memSys     *obs.Gauge
	gcCycles   *obs.Gauge

	// Runtime-sourced families (see metrics_runtime.go): the two
	// distributions MemStats never exposed, plus the sampler that also
	// re-sources the legacy goroutine/heap gauges above from
	// runtime/metrics, dropping the ReadMemStats stop-the-world.
	gcPause      *obs.Histogram
	schedLatency *obs.Histogram
	heapFree     *obs.Gauge
	rt           *runtimeSampler

	graphs     *obs.Gauge
	liveGraphs *obs.Gauge

	cacheEntries    *obs.Gauge
	cacheHits       *obs.Gauge
	cacheMisses     *obs.Gauge
	cacheEvictions  *obs.Gauge
	cachePartitions *obs.Gauge
	partEntries     *obs.GaugeVec
	partHits        *obs.GaugeVec
	partMisses      *obs.GaugeVec
	partEvictions   *obs.GaugeVec
	partExpired     *obs.GaugeVec

	poolActive   *obs.Gauge
	poolCapacity *obs.Gauge
	queueDepth   *obs.Gauge

	jobsInflight  *obs.Gauge
	jobsStarted   *obs.Counter
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobDuration   *obs.HistogramVec
	kernelStage   *obs.HistogramVec
	pipelineStage *obs.HistogramVec

	// Counting-kernel scheduler families: how the chunk-cursor runs inside
	// exact counts balanced. Workers/imbalance are last-run gauges (the
	// natural "what did the most recent kernel do" question); chunks and
	// steals accumulate.
	kernelWorkers   *obs.Gauge
	kernelChunks    *obs.Counter
	kernelSteals    *obs.Counter
	kernelImbalance *obs.Gauge
	kernelSched     *obs.HistogramVec
	// How exact counts split their work: triangles enumerated and
	// classified one by one, open pairs tallied by formula.
	kernelTriangles    *obs.Counter
	kernelFormulaPairs *obs.Counter
	// jobPanics counts job goroutines that panicked and were failed
	// instead of taking the daemon down.
	jobPanics *obs.Counter

	storeEnabled *obs.Gauge
	// The store families below are registered only when persistence is
	// configured, mirroring the old exposition which omitted them entirely
	// for in-memory servers.
	storeSegments     *obs.Gauge
	storeLiveWALs     *obs.Gauge
	storeSegmentBytes *obs.Gauge
	storeWALBytes     *obs.Gauge
	storeWALRecords   *obs.Counter
	storeWALSyncs     *obs.Counter
	storeCheckpoints  *obs.Counter
	autoCheckpoints   *obs.Counter
	autoCheckpointErr *obs.Counter
	persistErrs       *obs.Counter
	storeRecGraphs    *obs.Gauge
	storeRecLive      *obs.Gauge
	storeRecRecords   *obs.Gauge
	storeRecSeconds   *obs.Gauge

	unmatched    *obs.Counter
	responses    *obs.CounterVec
	httpDuration *obs.HistogramVec
	traceSpans   *obs.Counter
}

// newServerMetrics registers every family. Registration order is exposition
// order; the pre-registry output's ordering is preserved for the metric
// names that predate it.
func newServerMetrics(withStore bool) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{reg: r}

	m.uptime = r.NewGauge("mochyd_uptime_seconds", "Seconds since the server started.")
	m.buildInfo = r.NewGaugeVec("mochyd_build_info", "Build metadata; the value is always 1.", "version", "go")
	m.buildInfo.With(buildVersion()).SetInt(1)
	m.gomaxprocs = r.NewGauge("mochyd_gomaxprocs", "Scheduler parallelism (GOMAXPROCS).")
	m.goroutines = r.NewGauge("mochyd_goroutines", "Live goroutines.")
	m.memAlloc = r.NewGauge("mochyd_mem_alloc_bytes", "Heap bytes allocated and in use.")
	m.memSys = r.NewGauge("mochyd_mem_sys_bytes", "Bytes obtained from the OS.")
	m.gcCycles = r.NewGauge("mochyd_gc_cycles", "Completed GC cycles.")
	m.gcPause = r.NewHistogram("mochyd_go_gc_pause_seconds", "Stop-the-world GC pause distribution (runtime/metrics /gc/pauses:seconds).", gcPauseBounds)
	m.schedLatency = r.NewHistogram("mochyd_go_sched_latency_seconds", "Runnable-goroutine scheduling latency distribution (runtime/metrics /sched/latencies:seconds).", schedLatencyBounds)
	m.heapFree = r.NewGauge("mochyd_go_heap_free_bytes", "Idle heap memory retained from the OS for future allocation.")
	m.rt = newRuntimeSampler()

	m.graphs = r.NewGauge("mochyd_graphs", "Registered immutable graphs.")
	m.liveGraphs = r.NewGauge("mochyd_live_graphs", "Registered live graphs.")

	m.cacheEntries = r.NewGauge("mochyd_cache_entries", "Result cache entries across all partitions.")
	m.cacheHits = r.NewGauge("mochyd_cache_hits", "Result cache hits across all partitions.")
	m.cacheMisses = r.NewGauge("mochyd_cache_misses", "Result cache misses across all partitions.")
	m.cacheEvictions = r.NewGauge("mochyd_cache_evictions", "Result cache evictions across all partitions.")
	m.cachePartitions = r.NewGauge("mochyd_cache_partitions", "Result cache partition count.")
	m.partEntries = r.NewGaugeVec("mochyd_cache_partition_entries", "Entries per cache partition.", "partition")
	m.partHits = r.NewGaugeVec("mochyd_cache_partition_hits", "Hits per cache partition.", "partition")
	m.partMisses = r.NewGaugeVec("mochyd_cache_partition_misses", "Misses per cache partition.", "partition")
	m.partEvictions = r.NewGaugeVec("mochyd_cache_partition_evictions", "Evictions per cache partition.", "partition")
	m.partExpired = r.NewGaugeVec("mochyd_cache_partition_expired", "TTL expirations per cache partition.", "partition")

	m.poolActive = r.NewGauge("mochyd_pool_active", "Counting jobs currently holding a pool slot.")
	m.poolCapacity = r.NewGauge("mochyd_pool_capacity", "Maximum concurrent counting jobs.")
	m.queueDepth = r.NewGauge("mochyd_queue_depth", "Acquires blocked waiting for a pool slot.")

	m.jobsInflight = r.NewGauge("mochyd_jobs_inflight", "Jobs queued or running.")
	m.jobsStarted = r.NewCounter("mochyd_jobs_started_total", "Jobs created.")
	m.jobsDone = r.NewCounter("mochyd_jobs_done_total", "Jobs finished successfully.")
	m.jobsFailed = r.NewCounter("mochyd_jobs_failed_total", "Jobs finished with an error.")
	m.jobDuration = r.NewHistogramVec("mochyd_job_duration_seconds", "Wall-clock job duration by kind.", jobDurationBounds, "kind")
	// Both kinds render from the first scrape, observed or not — scrapers
	// join on series that must exist before the first profile job runs.
	m.jobDuration.With(api.JobKindCount)
	m.jobDuration.With(api.JobKindProfile)
	m.jobDuration.With(api.JobKindPipeline)
	m.kernelStage = r.NewHistogramVec("mochyd_kernel_stage_seconds", "Pure compute time per counting kernel run, by stage.", kernelStageBounds, "stage")
	m.kernelWorkers = r.NewGauge("mochyd_kernel_workers", "Worker goroutines of the most recent exact-count kernel run.")
	m.kernelChunks = r.NewCounter("mochyd_kernel_chunks_total", "Scheduler chunks handed out across exact-count kernel runs.")
	m.kernelSteals = r.NewCounter("mochyd_kernel_steals_total", "Chunks grabbed beyond a worker's static fair share (work redistributed by the chunk cursor).")
	m.kernelImbalance = r.NewGauge("mochyd_kernel_imbalance_ratio", "Max-over-mean per-worker busy time of the most recent exact-count kernel run (1.0 = perfectly even).")
	m.kernelSched = r.NewHistogramVec("mochyd_kernel_sched_phase_seconds", "Exact-count kernel phase durations: scheduler setup, enumeration, merge.", kernelStageBounds, "phase")
	for _, phase := range []string{"setup", "enumerate", "merge"} {
		m.kernelSched.With(phase)
	}
	m.kernelTriangles = r.NewCounter("mochyd_kernel_triangles_total", "Projected-graph triangles (closed triples) exact-count kernel runs enumerated and classified.")
	m.kernelFormulaPairs = r.NewCounter("mochyd_kernel_formula_pairs_total", "Open anchor pairs exact-count kernel runs tallied by formula without visiting them.")
	m.jobPanics = r.NewCounter("mochyd_job_panics_total", "Job goroutines that panicked; each failed its job with an internal error.")
	m.pipelineStage = r.NewHistogramVec("mochyd_pipeline_stage_duration_seconds", "Wall-clock pipeline stage duration by stage kind.", jobDurationBounds, "stage")
	for _, kind := range []string{api.StageCount, api.StageNullModel, api.StageRank, api.StageAnomaly, api.StageCluster, api.StageTemporal, api.StageProfile} {
		m.pipelineStage.With(kind)
	}

	m.storeEnabled = r.NewGauge("mochyd_store_enabled", "1 when persistence is configured, else 0.")
	if withStore {
		m.storeEnabled.SetInt(1)
		m.storeSegments = r.NewGauge("mochyd_store_segments", "Persisted immutable graph segments.")
		m.storeLiveWALs = r.NewGauge("mochyd_store_live_wals", "Live graphs with a write-ahead log.")
		m.storeSegmentBytes = r.NewGauge("mochyd_store_segment_bytes", "Bytes across segment files.")
		m.storeWALBytes = r.NewGauge("mochyd_store_wal_bytes", "Bytes across write-ahead logs.")
		m.storeWALRecords = r.NewCounter("mochyd_store_wal_records_total", "WAL records appended.")
		m.storeWALSyncs = r.NewCounter("mochyd_store_wal_syncs_total", "WAL fsync batches committed.")
		m.storeCheckpoints = r.NewCounter("mochyd_store_checkpoints_total", "Live-graph checkpoints folded.")
		m.autoCheckpoints = r.NewCounter("mochyd_store_checkpoints_auto_total", "Automatic WAL-threshold checkpoints completed.")
		m.autoCheckpointErr = r.NewCounter("mochyd_store_checkpoints_auto_errors_total", "Automatic checkpoints that failed.")
		m.persistErrs = r.NewCounter("mochyd_store_persist_errors_total", "Best-effort persistence failures (exact-count sidecars).")
		m.storeRecGraphs = r.NewGauge("mochyd_store_recovered_graphs", "Graphs rebuilt by the last recovery.")
		m.storeRecLive = r.NewGauge("mochyd_store_recovered_live_graphs", "Live graphs rebuilt by the last recovery.")
		m.storeRecRecords = r.NewGauge("mochyd_store_recovered_wal_records", "WAL records replayed by the last recovery.")
		m.storeRecSeconds = r.NewGauge("mochyd_store_recovery_seconds", "Duration of the last recovery.")
	} else {
		// Unregistered cells: the auto-checkpoint and persist paths still
		// increment them (they are no-ops without a store anyway), nothing
		// renders them.
		m.autoCheckpoints = &obs.Counter{}
		m.autoCheckpointErr = &obs.Counter{}
		m.persistErrs = &obs.Counter{}
	}

	m.unmatched = r.NewCounter("mochyd_requests_unmatched_total", "Requests that hit no route.")
	m.responses = r.NewCounterVec("mochyd_http_responses_total", "Responses written, by route and status code.", "route", "code")
	m.httpDuration = r.NewHistogramVec("mochyd_http_request_duration_seconds", "Handler latency by route.", requestDurationBounds, "route")
	m.traceSpans = r.NewCounter("mochyd_trace_spans_total", "Spans recorded by the flight recorder.")
	return m
}

// buildVersion resolves the module version and Go runtime for
// mochyd_build_info. Version is "(devel)" for non-module builds (go test,
// local go build without version stamping).
func buildVersion() (version, goVersion string) {
	version = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return version, runtime.Version()
}

// collectMetrics refreshes every mirrored gauge/counter. It runs once per
// scrape (registered as the registry's OnScrape hook), so each subsystem
// pays one stats sweep per scrape: one cache Stats() pass feeds both the
// global cache gauges and the per-partition series, and the store's
// directory walk happens once, not once per store metric.
func (s *Server) collectMetrics() {
	m := s.mets
	m.uptime.SetInt(int64(time.Since(s.start).Seconds()))
	m.gomaxprocs.SetInt(int64(runtime.GOMAXPROCS(0)))
	// Goroutine count, heap gauges, GC cycle count, and the pause and
	// scheduler-latency histograms all come from one runtime/metrics read.
	m.rt.collect(m)

	m.graphs.SetInt(int64(s.registry.Len()))
	m.liveGraphs.SetInt(int64(s.liveReg.Len()))

	cacheStats := s.cache.Stats()
	var entries int
	var hits, misses, evictions uint64
	for i, ps := range cacheStats {
		entries += ps.Entries
		hits += ps.Hits
		misses += ps.Misses
		evictions += ps.Evictions
		part := strconv.Itoa(i)
		m.partEntries.With(part).SetInt(int64(ps.Entries))
		m.partHits.With(part).SetInt(int64(ps.Hits))
		m.partMisses.With(part).SetInt(int64(ps.Misses))
		m.partEvictions.With(part).SetInt(int64(ps.Evictions))
		m.partExpired.With(part).SetInt(int64(ps.Expired))
	}
	m.cacheEntries.SetInt(int64(entries))
	m.cacheHits.SetInt(int64(hits))
	m.cacheMisses.SetInt(int64(misses))
	m.cacheEvictions.SetInt(int64(evictions))
	m.cachePartitions.SetInt(int64(len(cacheStats)))

	m.poolActive.SetInt(int64(s.pool.Active()))
	m.poolCapacity.SetInt(int64(s.pool.Capacity()))
	m.queueDepth.SetInt(int64(s.pool.Waiting()))

	m.jobsInflight.SetInt(int64(s.jobs.inflight()))
	m.jobsStarted.Set(s.jobs.started.Load())
	m.jobsDone.Set(s.jobs.finished.Load())
	m.jobsFailed.Set(s.jobs.failed.Load())

	if s.store != nil {
		st := s.store.Status()
		m.storeSegments.SetInt(int64(st.Graphs))
		m.storeLiveWALs.SetInt(int64(st.LiveGraphs))
		m.storeSegmentBytes.SetInt(st.SegmentBytes)
		m.storeWALBytes.SetInt(st.WALBytes)
		m.storeWALRecords.Set(st.WALRecords)
		m.storeWALSyncs.Set(st.WALSyncs)
		m.storeCheckpoints.Set(st.Checkpoints)
		m.storeRecGraphs.SetInt(int64(st.RecoveredGraphs))
		m.storeRecLive.SetInt(int64(st.RecoveredLive))
		m.storeRecRecords.SetInt(int64(st.RecoveredRecords))
		m.storeRecSeconds.Set(st.RecoveryDuration.Seconds())
	}
}
