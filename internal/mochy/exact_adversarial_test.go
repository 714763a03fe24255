package mochy

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mochy/internal/hypergraph"
	"mochy/internal/projection"
)

// buildKeep builds a hypergraph keeping duplicate hyperedges, so tests can
// put the same set in twice.
func buildKeep(t testing.TB, edges [][]int32) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(0).KeepDuplicates()
	for _, e := range edges {
		b.AddEdge(e)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bruteForceSplit counts the connected triples of g by brute force: closed
// ones (all three pairwise overlaps non-empty, i.e. projected-graph
// triangles) and valid open ones (the pairs the formula must count).
func bruteForceSplit(g *hypergraph.Hypergraph) (closed, open int64) {
	n := g.NumEdges()
	meets := func(a, b int) bool { return g.IntersectionSize(a, b) > 0 }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				ij, jk, ik := meets(i, j), meets(j, k), meets(i, k)
				switch {
				case ij && jk && ik:
					closed++
				case (ij && jk) || (jk && ik) || (ij && ik):
					open++
				}
			}
		}
	}
	return closed, open
}

// checkExact asserts CountExactOpts matches brute force at several worker
// counts on both projectors, with kernel stats that agree with the
// brute-force open/closed split.
func checkExact(t *testing.T, g *hypergraph.Hypergraph, workers []int) {
	t.Helper()
	want := bruteForceCounts(g)
	closed, open := bruteForceSplit(g)
	for _, w := range workers {
		for _, p := range []projection.Projector{
			projection.Build(g),
			projection.NewMemoized(g, 2, projection.PolicyDegree),
		} {
			got, stats, err := CountExactOpts(context.Background(), g, p, Options{Workers: w})
			if err != nil {
				t.Fatalf("%T workers=%d: %v", p, w, err)
			}
			if got != want {
				t.Fatalf("%T workers=%d: counts %v, brute force %v", p, w, got.String(), want.String())
			}
			if stats.Triangles != closed || stats.FormulaPairs != open {
				t.Fatalf("%T workers=%d: triangles %d formula pairs %d, want %d and %d",
					p, w, stats.Triangles, stats.FormulaPairs, closed, open)
			}
		}
	}
}

// TestCountExactAdversarial pins the formula-plus-triangles kernel to brute
// force on the shapes where its bucket arithmetic, phantom subtraction and
// rank ordering are easiest to get wrong.
func TestCountExactAdversarial(t *testing.T) {
	// all2Subsets returns every 2-subset of {0..n-1}: a projected graph in
	// which every hyperedge has the same degree.
	all2Subsets := func(n int32) [][]int32 {
		var es [][]int32
		for a := int32(0); a < n; a++ {
			for b := a + 1; b < n; b++ {
				es = append(es, []int32{a, b})
			}
		}
		return es
	}
	ring := func(n int32) [][]int32 {
		var es [][]int32
		for a := int32(0); a < n; a++ {
			es = append(es, []int32{a, (a + 1) % n})
		}
		return es
	}
	cases := []struct {
		name  string
		edges [][]int32
	}{
		{"center bit tie ω_ij+ω_ik == |e_i|", [][]int32{
			{0, 1, 2, 3}, {0, 1, 8}, {2, 3, 9}, {0, 1}, {2, 3},
		}},
		{"center bit tie ω_ij+ω_ik == |e_i|-1", [][]int32{
			{0, 1, 2, 3, 4}, {0, 1, 8}, {2, 3, 9}, {0, 1}, {2, 3}, {4, 7},
		}},
		{"center bit ties with closed pairs", [][]int32{
			{0, 1, 2, 3}, {0, 1, 2}, {1, 2, 3}, {0, 3}, {3, 4}, {0, 4},
		}},
		{"nested e_j ⊂ e_i", [][]int32{
			{0, 1, 2, 3, 4, 5}, {0, 1}, {6, 7, 5}, {2, 3, 8},
		}},
		{"nested e_j, e_k ⊂ e_i", [][]int32{
			{0, 1, 2, 3, 4, 5}, {0, 1}, {2, 3}, {1, 2}, {4}, {5, 4},
		}},
		{"duplicate of the anchor", [][]int32{
			{0, 1, 2}, {0, 1, 2}, {2, 3}, {0, 5}, {1, 6, 7},
		}},
		{"duplicate pair e_j == e_k", [][]int32{
			{0, 1, 2, 3}, {3, 4}, {3, 4}, {0, 9}, {4, 5},
		}},
		{"singleton edges", [][]int32{
			{0}, {0, 1}, {1}, {1, 2}, {2}, {0, 2}, {3}, {3, 0},
		}},
		{"hub overlapping every edge", [][]int32{
			{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
			{0, 10}, {1, 11}, {2, 12}, {3, 4}, {5, 13, 14}, {6, 10, 15},
			{7, 8, 9}, {9, 16}, {15, 16, 0}, {11, 12, 1, 2},
		}},
		{"equal projected degree: all 2-subsets", all2Subsets(6)},
		{"equal projected degree: ring", ring(9)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkExact(t, buildKeep(t, tc.edges), []int{1, 2, 8})
		})
	}
}

// FuzzCountExact decodes arbitrary bytes into a small hypergraph (at most 12
// hyperedges over at most 10 nodes, duplicates kept) and asserts the exact
// count equals brute force at 1 and 3 workers on both projectors.
func FuzzCountExact(f *testing.F) {
	f.Add([]byte{3, 3, 0, 1, 2, 3, 0, 3, 1, 3, 4, 5, 0, 3, 6, 7, 2})
	f.Add([]byte{11, 2, 0, 1, 2, 1, 2, 2, 2, 3, 2, 3, 0, 4, 0, 1, 2, 3, 1, 9})
	f.Add([]byte{5, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 0, 1, 1, 2, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		numEdges := int(data[0])%12 + 1
		data = data[1:]
		var edges [][]int32
		for e := 0; e < numEdges && len(data) > 0; e++ {
			size := int(data[0])%10 + 1
			data = data[1:]
			var nodes []int32
			for ; size > 0 && len(data) > 0; size-- {
				nodes = append(nodes, int32(data[0]%10))
				data = data[1:]
			}
			edges = append(edges, nodes)
		}
		g := buildKeep(t, edges)
		checkExact(t, g, []int{1, 3})
	})
}

// panickyProjector serves a projected graph whose Neighbors panics; it
// deliberately hides Degree, so the kernel reads neighborhoods only inside
// its worker goroutines.
type panickyProjector struct{ projection.Projector }

func (panickyProjector) Neighbors(int32) []projection.Neighbor { panic("injected projector fault") }

// TestCountExactWorkerPanic asserts a panic inside a kernel worker comes back
// as a *PanicError from CountExactOpts instead of crashing the process.
func TestCountExactWorkerPanic(t *testing.T) {
	g := paperExample()
	p := panickyProjector{projection.Build(g)}
	for _, workers := range []int{1, 3} {
		_, _, err := CountExactOpts(context.Background(), g, p, Options{Workers: workers})
		var pe *PanicError
		if !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), "panickyProjector") {
			t.Fatalf("workers=%d: error %v, want a PanicError with the worker's stack", workers, err)
		}
		if msg := err.Error(); msg != "mochy: kernel worker panic: injected projector fault" {
			t.Fatalf("workers=%d: error %q", workers, msg)
		}
	}
}
