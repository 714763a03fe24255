package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"mochy/api"
	"mochy/client"
	"mochy/internal/dynamic"
	"mochy/internal/generator"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/projection"
	"mochy/internal/server"
	"mochy/internal/server/live"
	"mochy/internal/store"
)

// The ingest workload is the daemon's write path with durability: a store
// data dir on local disk, WAL group commit with fsync before every ack, and
// a fixed automatic-checkpoint threshold. The callers share one live graph,
// so their concurrent mutations share the WAL's fsyncs (group commit). Each
// keeps its own share of the graph near a fixed size with balanced
// single-edge inserts (always fresh, never duplicates) and deletes (always
// of ids it inserted and still holds live), beside a small share of
// whole-graph binary uploads and a share of live-count reads.

const (
	ingestMutate = iota
	ingestRead
	ingestUpload
)

var ingestClasses = []string{"mutate", "read", "upload"}

const (
	// ingestLive is the shared live graph.
	ingestLive = "live"
	// ingestLiveEdges is the live graph's size, held steady so the cost
	// of one mutation does not drift over a run; each caller holds its
	// share, callerEdges.
	ingestLiveEdges = 2000
	callerEdges     = ingestLiveEdges / loadWorkers
	// ingestNodes is the live graph's node universe.
	ingestNodes = 4000
	// readShare and uploadShare split the op mix; the rest are mutations.
	readShare   = 0.2
	uploadShare = 0.005
	// uploadNames is how many graph names a caller's uploads rotate over;
	// uploadPayloads how many distinct graphs they draw from.
	uploadNames    = 4
	uploadPayloads = 4
	// checkpointWALBytes is the automatic checkpoint threshold, sized so
	// several checkpoints complete in every run.
	checkpointWALBytes = 128 << 10
)

// ingestOp is one planned operation. Its random draws are fixed by the plan;
// which id a delete removes is pick modulo the live graph's size when it
// runs, which the plan's own earlier operations determine.
type ingestOp struct {
	kind   int
	coin   bool
	pick   int64
	upload int
}

// ingestPlan returns the op sequence of one caller.
func ingestPlan(seed int64, caller int) func() ingestOp {
	rng := rand.New(rand.NewSource(subSeed(seed, streamClient, int64(caller))))
	return func() ingestOp {
		op := ingestOp{kind: ingestMutate, coin: rng.Intn(2) == 0, pick: rng.Int63(), upload: rng.Intn(uploadPayloads)}
		switch r := rng.Float64(); {
		case r < uploadShare:
			op.kind = ingestUpload
		case r < uploadShare+readShare:
			op.kind = ingestRead
		}
		return op
	}
}

// mutation is one acknowledged live-graph change, kept for the replays
// that check durability and time the incremental counter. seq orders the
// acknowledgements of all callers: a delete is acknowledged after the
// insert of its id, so the merged log in seq order is a valid history.
type mutation struct {
	insert bool
	nodes  []int32
	id     int32
	seq    int64
}

// ingestWorker is one caller: its share of the live graph, the model of
// what the daemon acknowledged for it, and its mutation log.
type ingestWorker struct {
	st      *ingestState
	idx     int
	c       *client.Client
	plan    func() ingestOp
	gen     *edgeGen
	live    []int32
	model   map[int32][]int32
	log     []mutation
	upSeq   int
	uploads map[string]int // upload name -> payload index last acknowledged
}

// ingestState is one set-up round's daemon, data dir and callers.
type ingestState struct {
	dir      string
	d        *daemon
	payloads []*hypergraph.Hypergraph
	workers  []*ingestWorker
	// acks numbers acknowledged mutations across callers.
	acks  atomic.Int64
	wrong atomic.Int64
	// segmentBytes is the store's segment growth per fresh upload,
	// measured in setup.
	segmentBytes float64
}

// openDaemon opens the store at dir, recovers it and serves it.
func openDaemon(dir string) (*daemon, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	cfg := server.DefaultConfig()
	cfg.MaxWorkersPerJob = kernelWorkers
	cfg.Store = st
	cfg.CheckpointWALBytes = checkpointWALBytes
	srv := server.New(cfg)
	if _, err := srv.Recover(); err != nil {
		_ = srv.Close()
		return nil, fmt.Errorf("recover store: %w", err)
	}
	d, err := startDaemon(srv)
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	return d, nil
}

// setupIngest opens a daemon on a fresh data dir, measures segment bytes
// per upload, seeds each caller's share of the live graph and runs a short
// warm-up. On error it tears the round down.
func setupIngest(ctx context.Context, seed int64, dir string) (_ *ingestState, err error) {
	st := &ingestState{dir: dir}
	defer func() {
		if err != nil {
			st.teardown()
		}
	}()
	if st.d, err = openDaemon(dir); err != nil {
		return nil, err
	}
	d := st.d
	for i := 0; i < uploadPayloads; i++ {
		st.payloads = append(st.payloads, domainGraph(subSeed(seed, streamUpload), int64(i), generator.Coauthorship, 800, 1000))
	}
	c := d.newClient()
	before, err := c.StoreStatus(ctx)
	if err != nil {
		return nil, fmt.Errorf("store status: %w", err)
	}
	for i, g := range st.payloads {
		if _, err := c.UploadGraph(ctx, fmt.Sprintf("warm-%d", i), g); err != nil {
			return nil, fmt.Errorf("warm upload: %w", err)
		}
	}
	after, err := c.StoreStatus(ctx)
	if err != nil {
		return nil, fmt.Errorf("store status: %w", err)
	}
	st.segmentBytes = float64(after.SegmentBytes-before.SegmentBytes) / uploadPayloads

	for i := 0; i < loadWorkers; i++ {
		w := &ingestWorker{
			st: st, idx: i, c: d.newClient(),
			plan:    ingestPlan(seed, i),
			gen:     newEdgeGen(subSeed(seed, streamEdges, int64(i)), ingestNodes, i, loadWorkers),
			model:   make(map[int32][]int32),
			uploads: make(map[string]int),
		}
		if err := w.seedGraph(ctx); err != nil {
			return nil, err
		}
		st.workers = append(st.workers, w)
	}
	lr := runLoad(ctx, st.loadWorkers(), 0, 100, nil, ingestClasses)
	if lr.failed > 0 {
		return nil, fmt.Errorf("warm-up: %v", lr.firstErr)
	}
	return st, nil
}

// seedGraph inserts the caller's share of the live graph in batches.
func (w *ingestWorker) seedGraph(ctx context.Context) error {
	const batch = 250
	for len(w.live) < callerEdges {
		edges := make([][]int32, min(batch, callerEdges-len(w.live)))
		for i := range edges {
			edges[i] = w.gen.next()
		}
		res, err := w.c.InsertEdges(ctx, ingestLive, edges)
		if err != nil {
			return fmt.Errorf("seed caller %d: %w", w.idx, err)
		}
		for i, r := range res.Results {
			w.applied(mutation{insert: true, nodes: edges[i], id: r.ID})
		}
	}
	return nil
}

// applied records an acknowledged mutation in the model and the log.
func (w *ingestWorker) applied(m mutation) {
	m.seq = w.st.acks.Add(1)
	w.log = append(w.log, m)
	if m.insert {
		w.live = append(w.live, m.id)
		w.model[m.id] = m.nodes
		return
	}
	delete(w.model, m.id)
}

func (st *ingestState) loadWorkers() []worker {
	ws := make([]worker, len(st.workers))
	for i, w := range st.workers {
		ws[i] = w
	}
	return ws
}

func (st *ingestState) teardown() {
	if st.d != nil {
		_ = st.d.stop()
	}
	_ = os.RemoveAll(st.dir)
}

func (w *ingestWorker) next() (int, func(context.Context, opCtx) error) {
	op := w.plan()
	return op.kind, func(ctx context.Context, o opCtx) error {
		ctx = o.traceCtx(ctx)
		switch op.kind {
		case ingestUpload:
			return w.upload(ctx, o, op.upload)
		case ingestRead:
			sp := o.span("client.live_counts")
			lc, err := w.c.LiveCounts(ctx, ingestLive)
			sp.end()
			if err != nil {
				return err
			}
			if !liveSizeOK(lc.Edges, len(w.live)) {
				w.st.wrong.Add(1)
			}
			return nil
		}
		if len(w.live) < callerEdges || len(w.live) == callerEdges && op.coin {
			return w.insert(ctx, o)
		}
		return w.delete(ctx, o, op.pick)
	}
}

// liveSizeOK reports whether a caller that holds mine edges of the live
// graph, and has no mutation in flight, may read edges in all. Every other
// caller holds callerEdges ± 1, its in-flight mutation included: it
// inserts below callerEdges, deletes above, and flips a coin at it.
func liveSizeOK(edges, mine int) bool {
	others := loadWorkers - 1
	d := edges - mine - others*callerEdges
	return -others <= d && d <= others
}

func (w *ingestWorker) insert(ctx context.Context, o opCtx) error {
	nodes := w.gen.next()
	sp := o.span("client.insert")
	res, err := w.c.InsertEdges(ctx, ingestLive, [][]int32{nodes})
	sp.end()
	if err != nil {
		return err
	}
	w.applied(mutation{insert: true, nodes: nodes, id: res.Results[0].ID})
	return nil
}

func (w *ingestWorker) delete(ctx context.Context, o opCtx, pick int64) error {
	i := int(pick % int64(len(w.live)))
	id := w.live[i]
	sp := o.span("client.delete")
	_, err := w.c.DeleteEdge(ctx, ingestLive, id)
	sp.end()
	if err != nil {
		return err
	}
	w.live[i] = w.live[len(w.live)-1]
	w.live = w.live[:len(w.live)-1]
	w.applied(mutation{id: id})
	return nil
}

func (w *ingestWorker) upload(ctx context.Context, o opCtx, p int) error {
	name := fmt.Sprintf("up-%d-%d", w.idx, w.upSeq%uploadNames)
	w.upSeq++
	g := w.st.payloads[p]
	sp := o.span("client.upload")
	res, err := w.c.UploadGraph(ctx, name, g)
	sp.end()
	if err != nil {
		return err
	}
	w.uploads[name] = p
	if res.Stats.NumEdges != g.NumEdges() {
		w.st.wrong.Add(1)
	}
	return nil
}

func runIngest(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	st, rounds, err := setupRepeated(
		func(r int) (*ingestState, error) {
			return setupIngest(ctx, cfg.seed, filepath.Join(cfg.workDir, fmt.Sprintf("data-%d", r)))
		},
		(*ingestState).teardown)
	if err != nil {
		return nil, err
	}
	out.setupTimes(rounds)
	defer st.teardown()
	out.note("ingest: data dir filesystem %s", fsType(st.dir))

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	admin := st.d.newClient()
	before, err := scrape(ctx, admin)
	if err != nil {
		return nil, err
	}
	windowSeq := st.acks.Load()
	alloc0, gc0 := memCounters()
	lr := runLoad(ctx, st.loadWorkers(), cfg.window(), 0, tr, ingestClasses)
	alloc1, gc1 := memCounters()
	rss := peakRSSMB()
	after, err := scrape(ctx, admin)
	if err != nil {
		return nil, err
	}
	out.loadAccounting(&lr)
	out.check(st.wrong.Load() == 0, "ingest: %d reads or uploads disagreed with the acknowledged state", st.wrong.Load())

	mut, reads, ups := lr.byClass(ingestMutate, nil).sorted(), lr.byClass(ingestRead, nil).sorted(), lr.byClass(ingestUpload, nil).sorted()
	done := float64(len(lr.records))
	if done == 0 {
		return nil, fmt.Errorf("no operation completed: %v", lr.firstErr)
	}
	checkpoints := counterDelta(before, after, "mochyd_store_checkpoints_auto_total")
	m := out.metrics
	m["peak_rss_mb"] = rss
	m["cpu_ms_per_op"] = ms(lr.cpu) / done
	m["ops_per_s"] = done / lr.wall.Seconds()
	m["main_p50_ms"] = ms(mut.quantile(0.5))
	m["side_p50_ms"] = ms(ups.quantile(0.5))
	out.note("ingest: %d ops in %.1f s; %s; %s; %s; %v automatic checkpoints", len(lr.records), lr.wall.Seconds(),
		mut.summary("mutations"), reads.summary("reads"), ups.summary("uploads"), checkpoints)

	var spans []span
	if cfg.trace {
		// The daemon's retained traces are read before the restart below
		// replaces it.
		if spans, err = daemonLayers(ctx, admin, before, after, &lr, ingestMutate, alloc1-alloc0, gc1-gc0, tr, out); err != nil {
			return nil, err
		}
	}
	verifyStart := time.Now()
	final, err := st.verify(ctx, out)
	if err != nil {
		return nil, err
	}
	if err := st.verifyRestart(ctx, final, out); err != nil {
		return nil, err
	}
	out.note("ingest: verification and restart took %.1f s", time.Since(verifyStart).Seconds())
	if !cfg.trace {
		return out, nil
	}

	m["mutate_p50_ms"] = ms(mut.quantile(0.5))
	m["mutate_p99_ms"] = ms(mut.p99())
	m["read_p50_ms"] = ms(reads.quantile(0.5))
	m["read_p99_ms"] = ms(reads.p99())
	m["upload_p50_ms"] = ms(ups.quantile(0.5))
	hist := histDelta(before, after, "mochyd_http_request_duration_seconds", "route")
	insert, del := hist[routeLabel(http.MethodPost, "/v1/graphs/{name}/edges")], hist[routeLabel(http.MethodDelete, "/v1/graphs/{name}/edges/{id}")]
	upload, counts := hist[routeLabel(http.MethodPut, "/v1/graphs/{name}")], hist[routeLabel(http.MethodGet, "/v1/graphs/{name}/counts")]
	m["server.handler_ms.insert"] = insert.mean() * 1000
	m["server.handler_ms.delete"] = del.mean() * 1000
	m["server.handler_ms.upload"] = upload.mean() * 1000
	m["server.handler_ms.live_counts"] = counts.mean() * 1000
	mutHandler := sumCount{Sum: insert.Sum + del.Sum, Count: insert.Count + del.Count}.mean() * 1000
	m["client.transport_ms.mutate"] = ms(mut.mean()) - mutHandler
	m["client.transport_ms.read"] = ms(reads.mean()) - m["server.handler_ms.live_counts"]
	m["client.transport_ms.upload"] = ms(ups.mean()) - m["server.handler_ms.upload"]
	m["store.fsync_ms"] = histDelta(before, after, "mochyd_store_wal_fsync_seconds", "")[""].mean() * 1000
	m["store.records_per_sync"] = ratio(counterDelta(before, after, "mochyd_store_wal_records_total"), counterDelta(before, after, "mochyd_store_wal_syncs_total"))
	m["store.checkpoints"] = checkpoints
	m["store.checkpoint_ms"] = histDelta(before, after, "mochyd_store_checkpoint_seconds", "")[""].mean() * 1000
	m["store.segment_bytes_per_upload"] = st.segmentBytes

	log := st.mergedLog()
	if m["dynamic.insert_us"], m["dynamic.delete_us"], err = replayCounter(log, windowSeq, final.Counts); err != nil {
		return nil, err
	}
	if m["store.wal_bytes_per_mutation"], err = replayWAL(filepath.Join(cfg.workDir, "wal-replay"), log); err != nil {
		return nil, err
	}
	if m["hypergraph.read_binary_ms"], err = timeReadBinary(st.payloads); err != nil {
		return nil, err
	}
	return out, writeSpans(cfg.spansPath("ingest"), spans)
}

// verify checks the live graph after the window: its maintained counts
// must equal an exact recount of its edges as downloaded from the daemon,
// and those edges must be exactly the acknowledged ones. It returns the
// live counts it checked.
func (st *ingestState) verify(ctx context.Context, out *outcome) (api.LiveCounts, error) {
	c := st.d.newClient()
	lc, err := c.LiveCounts(ctx, ingestLive)
	if err != nil {
		return lc, fmt.Errorf("verify: %w", err)
	}
	const snap = "snap-" + ingestLive
	if _, err := c.Snapshot(ctx, ingestLive, snap); err != nil {
		return lc, fmt.Errorf("verify: snapshot: %w", err)
	}
	g, err := c.DownloadGraph(ctx, snap)
	if err != nil {
		return lc, fmt.Errorf("verify: download: %w", err)
	}
	out.check(sameEdges(graphEdges(g), st.modelEdges()), "ingest: the live graph holds other edges than were acknowledged")
	recount := counting.CountExact(g, projection.Build(g), kernelWorkers)
	out.check(sameCounts(lc.Counts, recount[:]), "ingest: the live graph's maintained counts differ from an exact recount")
	return lc, nil
}

// verifyRestart closes the daemon, opens a new one on the same data dir and
// checks that every acknowledged mutation and upload survived: the same
// live ids, the same counts, and the last uploaded graph under each name.
func (st *ingestState) verifyRestart(ctx context.Context, final api.LiveCounts, out *outcome) error {
	if err := st.d.stop(); err != nil {
		st.d = nil
		return err
	}
	st.d = nil
	d, err := openDaemon(st.dir)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	st.d = d
	c := d.newClient()
	lc, err := c.LiveCounts(ctx, ingestLive)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	out.check(lc.Edges == final.Edges && sameCounts(lc.Counts, final.Counts), "ingest: the live graph's counts changed across a restart")
	ids, err := c.LiveEdges(ctx, ingestLive)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	var live []int32
	for _, w := range st.workers {
		live = append(live, w.live...)
	}
	out.check(sameIDs(ids.IDs, live), "ingest: the live graph's edge ids changed across a restart")
	for _, w := range st.workers {
		for name, p := range w.uploads {
			g, err := c.DownloadGraph(ctx, name)
			if err != nil {
				return fmt.Errorf("restart: download %s: %w", name, err)
			}
			out.check(sameEdges(graphEdges(g), graphEdges(st.payloads[p])), "ingest: upload %s lost across a restart", name)
		}
	}
	return nil
}

// modelEdges returns the edges every caller holds acknowledged.
func (st *ingestState) modelEdges() [][]int32 {
	var out [][]int32
	for _, w := range st.workers {
		for _, e := range w.model {
			out = append(out, e)
		}
	}
	return out
}

// mergedLog returns every caller's mutations in acknowledgement order.
func (st *ingestState) mergedLog() []mutation {
	var log []mutation
	for _, w := range st.workers {
		log = append(log, w.log...)
	}
	sort.Slice(log, func(i, j int) bool { return log[i].seq < log[j].seq })
	return log
}

func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := append([]int32(nil), a...), append([]int32(nil), b...)
	sort.Slice(sa, func(i, j int) bool { return sa[i] < sa[j] })
	sort.Slice(sb, func(i, j int) bool { return sb[i] < sb[j] })
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// replayCounter replays the merged mutation log on a standalone incremental
// counter and returns the mean insert and delete times of the entries
// acknowledged after ack number from (the measured window). Concurrent
// callers' inserts may reach the daemon in another order than their
// acknowledgements, so the replay maps the daemon's ids to its own. The
// counter must end at the daemon's counts.
func replayCounter(log []mutation, from int64, want []float64) (insertUS, deleteUS float64, err error) {
	c := dynamic.New()
	ids := make(map[int32]int32)
	var ins, del time.Duration
	var nIns, nDel int
	for _, m := range log {
		t0 := time.Now()
		if m.insert {
			id, err := c.Insert(m.nodes)
			if err != nil {
				return 0, 0, fmt.Errorf("replay insert: %w", err)
			}
			ids[m.id] = id
		} else if err := c.Delete(ids[m.id]); err != nil {
			return 0, 0, fmt.Errorf("replay delete: %w", err)
		}
		d := time.Since(t0)
		if m.seq <= from {
			continue
		}
		if m.insert {
			ins += d
			nIns++
		} else {
			del += d
			nDel++
		}
	}
	got := c.Counts()
	if !sameCounts(got[:], want) {
		return 0, 0, fmt.Errorf("replayed counts differ from the daemon's")
	}
	us := func(d time.Duration, n int) float64 { return ratio(float64(d)/float64(time.Microsecond), float64(n)) }
	return us(ins, nIns), us(del, nDel), nil
}

// replayWAL appends a mutation log to a fresh write-ahead log and returns
// its bytes per record.
func replayWAL(dir string, log []mutation) (float64, error) {
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return 0, fmt.Errorf("wal replay: %w", err)
	}
	if _, err := st.Recover(); err != nil {
		_ = st.Close()
		return 0, fmt.Errorf("wal replay: %w", err)
	}
	j, err := st.CreateLive("replay")
	if err != nil {
		_ = st.Close()
		return 0, fmt.Errorf("wal replay: %w", err)
	}
	recs := make([]live.Rec, len(log))
	for i, m := range log {
		recs[i] = live.Rec{Kind: live.RecDelete, ID: m.id}
		if m.insert {
			recs[i] = live.Rec{Kind: live.RecInsert, Nodes: m.nodes}
		}
	}
	seq, err := j.Append(recs)
	if err == nil {
		err = j.Commit(seq)
	}
	size := j.Size()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("wal replay: %w", err)
	}
	return ratio(float64(size), float64(len(log))), nil
}

// timeReadBinary times api.ReadGraph, the daemon's upload decoder, on the
// upload payloads and returns the mean per decode.
func timeReadBinary(gs []*hypergraph.Hypergraph) (float64, error) {
	const rounds = 20
	var total time.Duration
	for _, g := range gs {
		payload, err := api.EncodeGraph(g)
		if err != nil {
			return 0, err
		}
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			if _, err := api.ReadGraph(bytes.NewReader(payload), int64(len(payload)), g.NumNodes()); err != nil {
				return 0, fmt.Errorf("read binary: %w", err)
			}
			total += time.Since(t0)
		}
	}
	return ms(total) / float64(rounds*len(gs)), nil
}
