package mochy

import (
	"mochy/internal/hypergraph"
	"mochy/internal/motif"
)

// classify returns the h-motif ID of the triple {i, j, k} given the pairwise
// overlaps wij, wjk, wki from the projected graph. Following Lemma 2 of the
// paper, the triple intersection is scanned only when it can be non-empty
// (all three pairwise overlaps positive); all seven region cardinalities
// then follow by inclusion-exclusion. Returns 0 for invalid triples (not
// connected or duplicated hyperedges).
func classify(g *hypergraph.Hypergraph, i, j, k int32, wij, wjk, wki int32) int {
	var abc int
	if wij > 0 && wjk > 0 && wki > 0 {
		abc = g.TripleIntersectionSize(int(i), int(j), int(k))
	}
	return classifyVenn(g.EdgeSize(int(i)), g.EdgeSize(int(j)), g.EdgeSize(int(k)),
		int(wij), int(wjk), int(wki), abc)
}

// classifyVenn returns the h-motif ID of a triple from its three sizes,
// pairwise overlaps and triple intersection, or 0 for an invalid triple.
func classifyVenn(si, sj, sk, wij, wjk, wki, abc int) int {
	v := motif.VennFromCardinalities(si, sj, sk, wij, wjk, wki, abc)
	return motif.FromPattern(v.Pattern())
}

// Classify returns the h-motif ID of the triple {i, j, k}, computing all
// pairwise overlaps directly from the hypergraph. It is the reference entry
// point for callers without a projected graph; the counting algorithms use
// the overlap-aware internal path.
func Classify(g *hypergraph.Hypergraph, i, j, k int32) int {
	wij := int32(g.IntersectionSize(int(i), int(j)))
	wjk := int32(g.IntersectionSize(int(j), int(k)))
	wki := int32(g.IntersectionSize(int(k), int(i)))
	return classify(g, i, j, k, wij, wjk, wki)
}
