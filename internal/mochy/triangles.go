package mochy

// The MoCHy-E counting kernel behind CountExactOpts.
//
// Algorithm 2 classifies every pair {e_j, e_k} of an anchor's projected-graph
// neighbors, but most of those pairs are open (e_j ∩ e_k = ∅), and an open
// triple centred at e_i is fully described by three bits: whether
// |e_i| > ω_ij+ω_ik, |e_j| > ω_ij and |e_k| > ω_ik (the three exclusive Venn
// regions). So the kernel splits the work the way graphlet counters split
// wedges and triangles:
//
//   - Formula: per anchor, histogram the neighbors' overlaps by the
//     per-neighbor bit and count, for each bucket pair, how many pairs have
//     ω_ij+ω_ik < |e_i|. That tallies every neighbor pair into one of the
//     open motifs in O(d + |e_i|), closed pairs included.
//   - Triangles: enumerate each projected-graph triangle once, from its
//     lowest-ranked member, classify it with a node-stamp triple
//     intersection, and take back the phantom open pair the formula counted
//     at each of its three members.

import (
	"slices"
	"sort"

	"mochy/internal/hypergraph"
	"mochy/internal/motif"
	"mochy/internal/projection"
)

// openIndex maps the three exclusive-region bits of an open triple centred at
// e_i — center<<2 | j<<1 | k — to its motif's index in Counts. It is derived
// from representative cardinalities through the motif catalog, so it cannot
// drift from classify.
var openIndex = func() (t [8]uint8) {
	for bits := range t {
		c, j, k := bits>>2, bits>>1&1, bits&1
		v := motif.VennFromCardinalities(2+c, 1+j, 1+k, 1, 0, 1, 0)
		t[bits] = uint8(v.MotifID() - 1)
	}
	return t
}()

// openBits packs the exclusive-region bits of an open triple centred at a
// hyperedge of size sc whose two wings have sizes s1, s2 and overlaps w1, w2
// with the center.
func openBits(sc, s1, s2, w1, w2 int) int {
	b := 0
	if sc > w1+w2 {
		b |= 4
	}
	if s1 > w1 {
		b |= 2
	}
	if s2 > w2 {
		b |= 1
	}
	return b
}

// exactKern is one exact count's read-only state: the hypergraph, the
// projector, and the projected graph oriented from lower to higher rank so
// that every triangle has exactly one lowest-ranked member.
//
// With a degree-reporting projector the rank is (degree, id) and the
// oriented adjacency is materialized as one flat CSR (off, adj), which
// bounds triangle enumeration by the high-degree side's small out-lists.
// Without one (the memoized projector) the rank is the edge id: the anchor's
// out-list is the suffix of its sorted neighborhood above its own id, and
// each out-neighbor's higher-id neighbors come from a walk of the
// hypergraph's incidence lists, so the projector is asked for one
// neighborhood per anchor and no adjacency beyond its own budget is held.
type exactKern struct {
	g   *hypergraph.Hypergraph
	p   projection.Projector
	off []int // int: |∧| can outgrow the int32 incidence offsets
	adj []projection.Neighbor
}

func newExactKern(g *hypergraph.Hypergraph, p projection.Projector) *exactKern {
	k := &exactKern{g: g, p: p}
	dp, ok := p.(degreeProjector)
	if !ok {
		return k
	}
	n := g.NumEdges()
	higher := func(j, i int32) bool {
		dj, di := dp.Degree(j), dp.Degree(i)
		return dj > di || (dj == di && j > i)
	}
	k.off = make([]int, n+1)
	k.adj = make([]projection.Neighbor, 0, p.NumWedges())
	for i := int32(0); int(i) < n; i++ {
		for _, nb := range p.Neighbors(i) {
			if higher(nb.Edge, i) {
				k.adj = append(k.adj, nb)
			}
		}
		k.off[i+1] = len(k.adj)
	}
	return k
}

// out returns the CSR out-list of hyperedge v: its neighbors of higher rank.
func (k *exactKern) out(v int32) []projection.Neighbor {
	return k.adj[k.off[v]:k.off[v+1]]
}

// anchorCost estimates the kernel's work at anchor i: the formula's pass
// over the d neighbors and the |e_i| overlap histogram, plus one out-list
// scan per out-neighbor for triangle enumeration. A neighbor costs the
// formula about two out-list probes (a size lookup and a histogram update);
// weighting it so kept busy-time imbalance on the skewed benchmark graph at
// ~1.01 where a weight of one gave ~1.013. It needs the oriented CSR, so
// only degree-reporting projectors get cost-aware chunks.
func (k *exactKern) anchorCost(i int32) int64 {
	c := int64(1 + 2*k.p.(degreeProjector).Degree(i) + k.g.EdgeSize(int(i)))
	for _, nb := range k.out(i) {
		c += int64(len(k.out(nb.Edge)))
	}
	return c
}

// sched cuts the anchor space by anchorCost when the oriented CSR exists and
// uniformly otherwise.
func (k *exactKern) sched(workers int) *chunkSched {
	if k.off == nil {
		return cutChunks(k.g.NumEdges(), workers, nil)
	}
	return cutChunks(k.g.NumEdges(), workers, k.anchorCost)
}

// exactWorker is one goroutine's scratch and tallies. Counts are integers
// here (the triangle pass subtracts) and become Counts once, at merge time.
type exactWorker struct {
	k      *exactKern
	counts [motif.Count]int64
	// pairs is every neighbor pair the formula tallied; triangles the
	// closed triples enumerated.
	pairs, triangles int64

	// hist[b][x] counts anchor neighbors with overlap x and wing bit b;
	// cum[b][x] is its prefix sum over overlaps ≤ x.
	hist, cum [2][]int64

	// Stamps replace per-anchor clears: edgeMark[e] == anchorStamp marks an
	// out-neighbor of the anchor (edgeW[e] holds its overlap), nodeMark[x] ==
	// anchorStamp marks a node of e_i, and pairMark[x] == pairStamp a node of
	// e_i ∩ e_v for the current out-neighbor v.
	edgeMark, nodeMark, pairMark []uint32
	edgeW                        []int32
	anchorStamp, pairStamp       uint32
	common                       []int32 // nodes of e_i ∩ e_v, ascending

	// The incidence walk's tallies: shared[e] counts the nodes e shares
	// with the current out-neighbor, hits lists the e it touched.
	shared []int32
	hits   []int32
}

func newExactWorker(k *exactKern) *exactWorker {
	w := &exactWorker{
		k:        k,
		edgeMark: make([]uint32, k.g.NumEdges()),
		edgeW:    make([]int32, k.g.NumEdges()),
		nodeMark: make([]uint32, k.g.NumNodes()),
		pairMark: make([]uint32, k.g.NumNodes()),
	}
	if k.off == nil {
		w.shared = make([]int32, k.g.NumEdges())
	}
	maxSize := k.g.MaxEdgeSize() + 1
	for b := range w.hist {
		w.hist[b] = make([]int64, maxSize)
		w.cum[b] = make([]int64, maxSize)
	}
	return w
}

// anchor does all of anchor i's work: the formula over its neighbor pairs,
// then the triangles on which it is the lowest-ranked member.
func (w *exactWorker) anchor(i int32) {
	k := w.k
	ns := k.p.Neighbors(i)
	si := k.g.EdgeSize(int(i))
	w.formula(ns, si)

	var out []projection.Neighbor
	if k.off != nil {
		out = k.out(i)
	} else {
		out = ns[sort.Search(len(ns), func(x int) bool { return ns[x].Edge > i }):]
	}
	if len(out) < 2 {
		return
	}
	w.anchorStamp++
	for _, nb := range out {
		w.edgeMark[nb.Edge] = w.anchorStamp
		w.edgeW[nb.Edge] = nb.Overlap
	}
	for _, x := range k.g.Edge(int(i)) {
		w.nodeMark[x] = w.anchorStamp
	}
	for _, nv := range out {
		if k.off != nil {
			w.closeByCSR(i, si, nv)
		} else {
			w.closeByWalk(i, si, nv)
		}
	}
}

// closeByCSR finds the triangles {i, v, x} for the anchor's out-neighbor v
// by scanning v's out-list for other out-neighbors of the anchor.
func (w *exactWorker) closeByCSR(i int32, si int, nv projection.Neighbor) {
	marked := false
	for _, nx := range w.k.out(nv.Edge) {
		x := nx.Edge
		if w.edgeMark[x] != w.anchorStamp {
			continue
		}
		if !marked {
			w.markPair(nv.Edge)
			marked = true
		}
		w.triangle(i, nv.Edge, x, si, int(nv.Overlap), int(nx.Overlap), int(w.edgeW[x]))
	}
}

// closeByWalk finds the triangles {i, v, x} for the anchor's out-neighbor v
// under id rank by walking the incidence lists of v's nodes above v: each
// out-neighbor x of the anchor met there is a triangle, and the number of
// times it is met is ω(∧vx).
func (w *exactWorker) closeByWalk(i int32, si int, nv projection.Neighbor) {
	g := w.k.g
	v := nv.Edge
	w.hits = w.hits[:0]
	for _, y := range g.Edge(int(v)) {
		inc := g.IncidentEdges(y)
		above, _ := slices.BinarySearch(inc, v+1)
		for _, x := range inc[above:] {
			if w.edgeMark[x] != w.anchorStamp {
				continue
			}
			if w.shared[x] == 0 {
				w.hits = append(w.hits, x)
			}
			w.shared[x]++
		}
	}
	if len(w.hits) > 0 {
		w.markPair(v)
	}
	for _, x := range w.hits {
		w.triangle(i, v, x, si, int(nv.Overlap), int(w.shared[x]), int(w.edgeW[x]))
		w.shared[x] = 0
	}
}

// formula tallies every pair of anchor i's neighbors ns into the open motif
// its three exclusive-region bits name. Neighbors split into two buckets by
// the wing bit |e_j| > ω_ij; within and across buckets, the pairs whose
// overlaps sum below |e_i| (center bit set) come from one pass over the
// overlap histogram and its prefix sums, and the rest of the bucket pair has
// the center bit clear.
func (w *exactWorker) formula(ns []projection.Neighbor, si int) {
	if len(ns) < 2 {
		return
	}
	g := w.k.g
	h0, h1 := w.hist[0][:si+1], w.hist[1][:si+1]
	var n0, n1 int64
	for _, nb := range ns {
		if g.EdgeSize(int(nb.Edge)) > int(nb.Overlap) {
			h1[nb.Overlap]++
			n1++
		} else {
			h0[nb.Overlap]++
			n0++
		}
	}
	c0, c1 := w.cum[0][:si+1], w.cum[1][:si+1]
	for x := 1; x <= si; x++ {
		c0[x] = c0[x-1] + h0[x]
		c1[x] = c1[x-1] + h1[x]
	}
	// Ordered pairs with x + y < si: partner overlaps y ≤ si-x-1.
	var lt00, lt01, lt11 int64
	for x := 1; x+1 < si; x++ {
		r := si - x - 1
		lt00 += h0[x] * c0[r]
		lt11 += h1[x] * c1[r]
		lt01 += h0[x] * c1[r]
	}
	// Same-bucket sums counted each neighbor paired with itself when
	// 2x < si, and every other pair twice.
	for x := 1; 2*x < si; x++ {
		lt00 -= h0[x]
		lt11 -= h1[x]
	}
	lt00 /= 2
	lt11 /= 2
	all00, all01, all11 := n0*(n0-1)/2, n0*n1, n1*(n1-1)/2
	w.counts[openIndex[4]] += lt00
	w.counts[openIndex[0]] += all00 - lt00
	w.counts[openIndex[5]] += lt01
	w.counts[openIndex[1]] += all01 - lt01
	w.counts[openIndex[7]] += lt11
	w.counts[openIndex[3]] += all11 - lt11
	w.pairs += all00 + all01 + all11
	clear(h0)
	clear(h1)
}

// markPair stamps the nodes of e_i ∩ e_v for the anchor's out-neighbor v and
// keeps them, ascending, in common.
func (w *exactWorker) markPair(v int32) {
	if w.pairStamp++; w.pairStamp == 0 {
		clear(w.pairMark)
		w.pairStamp = 1
	}
	w.common = w.common[:0]
	for _, x := range w.k.g.Edge(int(v)) {
		if w.nodeMark[x] == w.anchorStamp {
			w.pairMark[x] = w.pairStamp
			w.common = append(w.common, x)
		}
	}
}

// tripleSize returns |e_i ∩ e_j ∩ e_k| for the stamped pair e_i ∩ e_j. It
// scans e_k against the stamps, unless e_k is a hub many times larger than
// the pair's common nodes; then it searches e_k for each of them instead.
func (w *exactWorker) tripleSize(k int32) int {
	ek := w.k.g.Edge(int(k))
	n := 0
	if len(ek) > 8*len(w.common) {
		for _, x := range w.common {
			if _, ok := slices.BinarySearch(ek, x); ok {
				n++
			}
		}
		return n
	}
	for _, x := range ek {
		if w.pairMark[x] == w.pairStamp {
			n++
		}
	}
	return n
}

// triangle classifies the closed triple {i, j, k} (i the lowest-ranked
// member, e_i ∩ e_j already stamped) and takes back the open pair the formula
// counted at each of its three members.
func (w *exactWorker) triangle(i, j, k int32, si, wij, wjk, wik int) {
	g := w.k.g
	sj, sk := g.EdgeSize(int(j)), g.EdgeSize(int(k))
	w.triangles++
	w.counts[openIndex[openBits(si, sj, sk, wij, wik)]]--
	w.counts[openIndex[openBits(sj, si, sk, wij, wjk)]]--
	w.counts[openIndex[openBits(sk, si, sj, wik, wjk)]]--
	if id := classifyVenn(si, sj, sk, wij, wjk, wik, w.tripleSize(k)); id != 0 {
		w.counts[id-1]++
	}
}
