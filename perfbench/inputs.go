package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"mochy/internal/generator"
	"mochy/internal/hypergraph"
)

// Every input is a pure function of the workload seed: graphs, op
// sequences and sampling seeds all derive from it through subSeed, so the
// same --seed replays the same inputs and a different one changes them.

// subSeed derives an independent stream seed from the workload seed and a
// path of small integers (splitmix64 finalizer over each part).
func subSeed(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x += 0x9E3779B97F4A7C15 + uint64(p)
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// Stream ids for subSeed, one per consumer.
const (
	streamGraph = iota + 1
	streamClient
	streamNull
	streamSample
	streamEdges
	streamUpload
)

// domainGraph generates one synthetic hypergraph of a paper domain.
func domainGraph(seed int64, idx int64, d generator.Domain, nodes, draws int) *hypergraph.Hypergraph {
	return generator.Generate(generator.Config{
		Domain: d, Nodes: nodes, Edges: draws, Seed: subSeed(seed, streamGraph, idx),
	})
}

// edgeGen produces hyperedges that are unique over its lifetime: sizes 2–6,
// nodes drawn from a Zipf distribution so popular nodes make hyperedges
// overlap the way real ones do. The distribution's head is flattened
// (zipfV) so that no hub makes single mutations cost milliseconds of
// incremental counting. Generators of parts 0..parts-1 split the edge space
// by a hash of the edge, so callers that share a live graph, one generator
// each, can never send a duplicate insert.
type edgeGen struct {
	rng         *rand.Rand
	zipf        *rand.Zipf
	part, parts uint32
	seen        map[string]struct{}
	key         []byte
}

// zipfV offsets edgeGen's Zipf ranks: P(k) ∝ (zipfV+k)^-1.1.
const zipfV = 50

// newEdgeGen returns the generator of one part of the edge space: the
// edges whose hash is part modulo parts.
func newEdgeGen(seed int64, nodes, part, parts int) *edgeGen {
	rng := rand.New(rand.NewSource(seed))
	return &edgeGen{
		rng:   rng,
		zipf:  rand.NewZipf(rng, 1.1, zipfV, uint64(nodes-1)),
		part:  uint32(part),
		parts: uint32(parts),
		seen:  make(map[string]struct{}),
	}
}

// next returns a fresh hyperedge of the generator's part, sorted, never
// returned before.
func (g *edgeGen) next() []int32 {
	for {
		size := 2 + g.rng.Intn(5)
		e := make([]int32, 0, size)
		for len(e) < size {
			v := int32(g.zipf.Uint64())
			if !containsNode(e, v) {
				e = append(e, v)
			}
		}
		sort.Slice(e, func(i, j int) bool { return e[i] < e[j] })
		g.key = g.key[:0]
		for _, v := range e {
			g.key = append(g.key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		if _, dup := g.seen[string(g.key)]; dup {
			continue
		}
		h := fnv.New32a()
		h.Write(g.key)
		if h.Sum32()%g.parts != g.part {
			continue
		}
		g.seen[string(g.key)] = struct{}{}
		return e
	}
}

func containsNode(e []int32, v int32) bool {
	for _, x := range e {
		if x == v {
			return true
		}
	}
	return false
}

// edgeSet returns a hypergraph's hyperedges as a canonical multiset key
// (each edge sorted, the list sorted), for comparing graphs whose edge ids
// may differ.
func edgeSet(edges [][]int32) []string {
	out := make([]string, len(edges))
	for i, e := range edges {
		s := append([]int32(nil), e...)
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		b := make([]byte, 0, 4*len(s))
		for _, v := range s {
			b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

// graphEdges lists a hypergraph's hyperedges.
func graphEdges(g *hypergraph.Hypergraph) [][]int32 {
	out := make([][]int32, g.NumEdges())
	for i := range out {
		out[i] = g.Edge(i)
	}
	return out
}

// sameEdges reports whether two edge lists hold the same multiset of
// hyperedges.
func sameEdges(a, b [][]int32) bool {
	sa, sb := edgeSet(a), edgeSet(b)
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// work is what a prefix of a hypergraph's hyperedges costs the counting
// kernel: its projected graph's hyperwedges |∧| (MoCHy-A+ draws a share of
// them) and its pair work Σ_e C(d_e, 2) over projected degrees d_e (the
// anchor pairs MoCHy-E visits).
type work struct{ wedges, pairs int64 }

// prefixFor returns the length of the shortest prefix of g's hyperedges
// whose work satisfies enough, or false if g as a whole does not.
func prefixFor(g *hypergraph.Hypergraph, enough func(work) bool) (int, bool) {
	n := g.NumEdges()
	deg := make([]int64, n)
	mark := make([]int, n)
	incident := make(map[int32][]int32)
	var w work
	for e := 0; e < n; e++ {
		var d int64
		for _, v := range g.Edge(e) {
			for _, f := range incident[v] {
				if mark[f] != e+1 {
					mark[f] = e + 1
					w.pairs += deg[f] // C(d+1, 2) - C(d, 2)
					deg[f]++
					d++
				}
			}
		}
		deg[e] = d
		w.pairs += d * (d - 1) / 2
		w.wedges += d
		if enough(w) {
			return e + 1, true
		}
		for _, v := range g.Edge(e) {
			incident[v] = append(incident[v], int32(e))
		}
	}
	return n, false
}

// workGraph generates a domain graph and cuts it to the shortest prefix of
// its hyperedges whose work satisfies enough. Graphs from different seeds
// differ in structure but cost the counting kernel about the same, so a
// run's figures do not depend on which seed it drew.
func workGraph(seed, idx int64, d generator.Domain, nodes, draws int, enough func(work) bool) (*hypergraph.Hypergraph, error) {
	g := domainGraph(seed, idx, d, nodes, draws)
	k, ok := prefixFor(g, enough)
	if !ok {
		return nil, fmt.Errorf("%v graph of seed %d is too small for its work budget", d, seed)
	}
	return g.FilterEdges(func(e int) bool { return e < k }), nil
}

// sameCounts reports whether two count vectors are bit-identical.
func sameCounts(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
