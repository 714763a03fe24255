package mochy

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mochy/internal/hypergraph"
	"mochy/internal/motif"
	"mochy/internal/projection"
)

// Instance is one h-motif instance: three connected hyperedges and the ID of
// the motif describing their connectivity pattern.
type Instance struct {
	A, B, C int32 // hyperedge IDs
	Motif   int   // 1..26
}

// Options configures a counting kernel run.
type Options struct {
	// Workers is the number of goroutines; values < 1 mean 1.
	Workers int
	// Progress, when non-nil, is invoked with (done, total) anchor hyperedges
	// as the run advances. It may be called concurrently from multiple
	// workers and must be goroutine-safe; it is always invoked once with
	// done == total before a successful return.
	Progress func(done, total int)
}

// mergeFactor gates the merge-style intersection in the pair loop: when the
// shared neighbor e_j has degree below mergeFactor × the remaining anchor
// neighborhood, one merge walk over N(e_j) (cost deg(j) + rest) beats a
// binary search per pair (cost rest × log deg(j)). On the 2048-edge skewed
// BenchmarkPerEdgeCountsParallel graph (2 cores) dropping the walk made
// every cell 1.6-1.9x slower, so it stays (BENCH_kernel.json).
const mergeFactor = 8

// kern bundles a pair-enumerating run's inputs (Enumerate,
// PerEdgeCountsParallel) with the optional projector capabilities the pair
// loop exploits when present: cheapest-side overlap probing and O(1) degrees
// (which also make Neighbors slices stable, the precondition for holding
// N(e_j) across a merge walk).
type kern struct {
	g   *hypergraph.Hypergraph
	p   projection.Projector
	ori orientedProjector // nil when p has no oriented overlap
	deg degreeProjector   // nil when p has no O(1) degree
}

func newKern(g *hypergraph.Hypergraph, p projection.Projector) kern {
	k := kern{g: g, p: p}
	if o, ok := p.(orientedProjector); ok {
		k.ori = o
	}
	if d, ok := p.(degreeProjector); ok {
		k.deg = d
	}
	return k
}

// overlap returns ω(∧jk), probing the cheaper neighborhood when the
// projector supports orientation.
func (k *kern) overlap(j, kk int32) int32 {
	if k.ori != nil {
		return k.ori.OverlapOriented(j, kk)
	}
	return k.p.Overlap(j, kk)
}

// anchorPairs enumerates the instances anchored at hyperedge i per the
// Algorithm 2 dedup rule (closed triples counted only from their smallest
// member) and invokes visit for each classified instance. The anchor
// neighborhood is copied into buf (returned for reuse) because projectors
// only guarantee the slice until the next Neighbors call.
//
// For each neighbor e_j, the remaining pairs {e_j, e_k} need ω(∧jk). Two
// strategies: an overlap probe per pair (cheapest side first when the
// projector is oriented), or — when e_j's own neighborhood is small relative
// to the remaining pairs and the projector hands out stable sorted slices —
// one merge-style walk of N(e_j) against the rest of the anchor
// neighborhood, which visits each side once instead of paying a search per
// pair.
func (k *kern) anchorPairs(i int32, buf []projection.Neighbor, visit func(i, j, kk int32, id int)) []projection.Neighbor {
	ns := append(buf[:0], k.p.Neighbors(i)...)
	for a := 0; a+1 < len(ns); a++ {
		j, wij := ns[a].Edge, ns[a].Overlap
		rest := ns[a+1:]
		if k.deg != nil && k.deg.Degree(j) < mergeFactor*len(rest) {
			adjJ := k.p.Neighbors(j)
			m := 0
			for b := range rest {
				kk, wik := rest[b].Edge, rest[b].Overlap
				for m < len(adjJ) && adjJ[m].Edge < kk {
					m++
				}
				var wjk int32
				if m < len(adjJ) && adjJ[m].Edge == kk {
					wjk = adjJ[m].Overlap
				}
				if wjk != 0 && (i > j || i > kk) {
					continue // closed: counted only from the smallest ID
				}
				if id := classify(k.g, i, j, kk, wij, wjk, wik); id != 0 {
					visit(i, j, kk, id)
				}
			}
			continue
		}
		for b := range rest {
			kk, wik := rest[b].Edge, rest[b].Overlap
			wjk := k.overlap(j, kk)
			if wjk != 0 && (i > j || i > kk) {
				continue
			}
			if id := classify(k.g, i, j, kk, wij, wjk, wik); id != 0 {
				visit(i, j, kk, id)
			}
		}
	}
	return ns
}

// PanicError is the error CountExactOpts returns when one of its worker
// goroutines panicked: the run stops instead of the process, and the panic
// value and the worker's stack travel to the caller.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("mochy: kernel worker panic: %v", e.Value)
}

// CountExact runs MoCHy-E (Algorithm 2): every instance {e_i, e_j, e_k} is
// counted once, open ones at their center and closed ones once per triangle
// of the projected graph. workers ≥ 1 selects the number of goroutines. See
// CountExactOpts for how the count is split and scheduled.
func CountExact(g *hypergraph.Hypergraph, p projection.Projector, workers int) Counts {
	c, _, _ := CountExactOpts(context.Background(), g, p, Options{Workers: workers})
	return c
}

// CountExactOpts is the full-control MoCHy-E entry point. Rather than
// classifying every neighbor pair of every anchor, it counts open instances
// by formula and enumerates only the closed ones (see triangles.go):
//
//   - per anchor, every neighbor pair is tallied into the open motif its
//     three exclusive-region bits name, from an overlap histogram in
//     O(d + |e_i|);
//   - each projected-graph triangle is enumerated once, from its
//     lowest-ranked member — rank (degree, id) over a flat oriented CSR built
//     during setup when the projector reports degrees, id otherwise — then
//     classified with a node-stamp triple intersection, and the open pair
//     the formula counted at each of its members is taken back.
//
// Anchors are handed to workers through an atomic chunk cursor over ranges
// sized by anchorCost when the oriented CSR exists, uniform otherwise.
// Counts accumulate in per-worker vectors merged once at the end; results
// are identical for every worker count and projector.
//
// If ctx is cancelled the run stops at the next anchor boundary on every
// worker and returns the cancellation cause; if a worker panics the run
// stops the same way and returns a *PanicError carrying the panic and its
// stack.
// The returned Counts are meaningless in both cases. The returned
// KernelStats describe the run's scheduling, phase timings and work split
// whether or not it completed.
func CountExactOpts(ctx context.Context, g *hypergraph.Hypergraph, p projection.Projector, opts Options) (Counts, KernelStats, error) {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	n := g.NumEdges()
	stats := KernelStats{Workers: workers}

	setupStart := time.Now()
	k := newExactKern(g, p)
	sched := k.sched(workers)
	stats.Chunks = sched.numChunks()
	stats.CostAware = sched.costAware
	stats.Setup = time.Since(setupStart)

	var doneCh <-chan struct{}
	if ctx != nil {
		doneCh = ctx.Done()
	}

	results := make([]*exactWorker, workers)
	grabs := make([]int64, workers)
	busy := make([]time.Duration, workers)
	var reported atomic.Int64
	var halt atomic.Bool
	var panicOnce sync.Once
	var panicErr *PanicError
	enumStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicErr = &PanicError{Value: r, Stack: debug.Stack()} })
					halt.Store(true)
				}
			}()
			start := time.Now()
			defer func() { busy[w] = time.Since(start) }()
			ew := newExactWorker(k)
			results[w] = ew
			sinceReport := 0
			for {
				c := sched.next()
				if c < 0 {
					break
				}
				grabs[w]++
				lo, hi := sched.chunk(c)
				for i := lo; i < hi; i++ {
					if halt.Load() {
						return
					}
					if doneCh != nil {
						select {
						case <-doneCh:
							return
						default:
						}
					}
					ew.anchor(i)
					if opts.Progress != nil {
						if sinceReport++; sinceReport == progressStride {
							opts.Progress(int(reported.Add(int64(sinceReport))), n)
							sinceReport = 0
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stats.Enumerate = time.Since(enumStart)
	stats.Steals, stats.Imbalance = sched.balance(grabs, busy)
	if panicErr != nil {
		return Counts{}, stats, panicErr
	}
	if ctx != nil && ctx.Err() != nil {
		return Counts{}, stats, context.Cause(ctx)
	}
	mergeStart := time.Now()
	var sum [motif.Count]int64
	var pairs int64
	for _, ew := range results {
		for t, v := range ew.counts {
			sum[t] += v
		}
		pairs += ew.pairs
		stats.Triangles += ew.triangles
	}
	stats.FormulaPairs = pairs - 3*stats.Triangles
	var total Counts
	for t, v := range sum {
		total[t] = float64(v)
	}
	stats.Merge = time.Since(mergeStart)
	if opts.Progress != nil {
		opts.Progress(n, n)
	}
	return total, stats, nil
}

// Enumerate runs MoCHy-EENUM (Algorithm 3): it visits every h-motif instance
// exactly once, in no particular order, invoking fn for each. Enumeration
// stops early if fn returns false. Instances are reported with A < B < C.
func Enumerate(g *hypergraph.Hypergraph, p projection.Projector, fn func(Instance) bool) {
	k := newKern(g, p)
	n := g.NumEdges()
	var ns []projection.Neighbor
	for i := int32(0); int(i) < n; i++ {
		ns = append(ns[:0], p.Neighbors(i)...)
		for a := 0; a < len(ns); a++ {
			j, wij := ns[a].Edge, ns[a].Overlap
			for b := a + 1; b < len(ns); b++ {
				kk, wik := ns[b].Edge, ns[b].Overlap
				wjk := k.overlap(j, kk)
				if wjk != 0 && (i > j || i > kk) {
					continue
				}
				id := classify(g, i, j, kk, wij, wjk, wik)
				if id == 0 {
					continue
				}
				x, y, z := sort3(i, j, kk)
				if !fn(Instance{A: x, B: y, C: z, Motif: id}) {
					return
				}
			}
		}
	}
}

// PerEdgeCounts returns, for every hyperedge, how many instances of each
// h-motif contain it — the HM26 feature of Section 4.4. The aggregate counts
// are returned alongside. The result slice has NumEdges rows of 26 columns.
func PerEdgeCounts(g *hypergraph.Hypergraph, p projection.Projector) ([][]int64, Counts) {
	per := make([][]int64, g.NumEdges())
	for e := range per {
		per[e] = make([]int64, 26)
	}
	var total Counts
	Enumerate(g, p, func(ins Instance) bool {
		t := ins.Motif - 1
		per[ins.A][t]++
		per[ins.B][t]++
		per[ins.C][t]++
		total[t]++
		return true
	})
	return per, total
}

// PerEdgeCountsParallel is PerEdgeCounts distributed over worker goroutines.
// Anchors are scheduled through the same cost-aware chunk cursor as
// CountExactOpts, and every worker writes into a private dense shard of the
// per-edge matrix (an instance touches three arbitrary rows, so shared rows
// would need an atomic add per touch — measured as the dominant cost of the
// old implementation). Shards are merged once, in parallel over row ranges.
// Results are identical to the serial path. The shards cost
// workers × NumEdges × 26 int64s of transient memory, which is the price of
// contention-free writes.
func PerEdgeCountsParallel(g *hypergraph.Hypergraph, p projection.Projector, workers int) ([][]int64, Counts) {
	if workers < 1 {
		workers = 1
	}
	n := g.NumEdges()
	k := newKern(g, p)
	sched := newChunkSched(p, n, workers)
	shards := make([][]int64, workers)
	totals := make([]Counts, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := make([]int64, n*26)
			shards[w] = shard
			local := &totals[w]
			visit := func(i, j, kk int32, id int) {
				t := id - 1
				shard[int(i)*26+t]++
				shard[int(j)*26+t]++
				shard[int(kk)*26+t]++
				local[t]++
			}
			var ns []projection.Neighbor
			for {
				c := sched.next()
				if c < 0 {
					break
				}
				lo, hi := sched.chunk(c)
				for i := lo; i < hi; i++ {
					ns = k.anchorPairs(i, ns, visit)
				}
			}
		}(w)
	}
	wg.Wait()
	flat := shards[0]
	if workers > 1 {
		rows := (n + workers - 1) / workers
		var mg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*rows, (w+1)*rows
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			mg.Add(1)
			go func(lo, hi int) {
				defer mg.Done()
				dst := flat[lo*26 : hi*26]
				for s := 1; s < workers; s++ {
					src := shards[s][lo*26 : hi*26]
					for x, v := range src {
						dst[x] += v
					}
				}
			}(lo, hi)
		}
		mg.Wait()
	}
	var total Counts
	for w := range totals {
		total.add(&totals[w])
	}
	per := make([][]int64, n)
	for e := range per {
		per[e] = flat[e*26 : (e+1)*26 : (e+1)*26]
	}
	return per, total
}

// sort3 orders three edge IDs ascending.
func sort3(a, b, c int32) (int32, int32, int32) {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return a, b, c
}
