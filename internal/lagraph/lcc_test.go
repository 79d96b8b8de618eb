package lagraph

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
)

// undirectedFromEdges builds an undirected graph from an edge list,
// mirroring every edge (and keeping any explicit self-loops).
func undirectedFromEdges(t *testing.T, n int, edges [][2]int, withLoops []int) *Graph[float64] {
	t.Helper()
	var rows, cols []int
	var vals []float64
	for _, e := range edges {
		rows = append(rows, e[0], e[1])
		cols = append(cols, e[1], e[0])
		vals = append(vals, 1, 1)
	}
	for _, v := range withLoops {
		rows = append(rows, v)
		cols = append(cols, v)
		vals = append(vals, 1)
	}
	A, err := grb.MatrixFromTuples(n, n, rows, cols, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(&A, AdjacencyUndirected)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// lccMap runs LCC and collects the stored entries.
func lccMap(t *testing.T, g *Graph[float64]) map[int]float64 {
	t.Helper()
	v, err := LocalClusteringCoefficient(bg, g)
	if err != nil && !IsWarning(err) {
		t.Fatalf("LCC: %v", err)
	}
	out := map[int]float64{}
	v.Iterate(func(i int, x float64) { out[i] = x })
	return out
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestLCCTriangle(t *testing.T) {
	// K3: every vertex has degree 2 and sits in one triangle → lcc = 1.
	g := undirectedFromEdges(t, 3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, nil)
	got := lccMap(t, g)
	if len(got) != 3 {
		t.Fatalf("entries = %v, want all 3 vertices", got)
	}
	for v, c := range got {
		if !almost(c, 1) {
			t.Errorf("lcc(%d) = %v, want 1", v, c)
		}
	}
}

func TestLCCPathHasNoTriangles(t *testing.T) {
	// Path 0-1-2: no triangles → the result vector is empty (all zeros).
	g := undirectedFromEdges(t, 3, [][2]int{{0, 1}, {1, 2}}, nil)
	if got := lccMap(t, g); len(got) != 0 {
		t.Fatalf("entries = %v, want none", got)
	}
}

func TestLCCK4MinusEdge(t *testing.T) {
	// K4 minus edge (2,3): vertices 0 and 1 have degree 3 and sit in two
	// triangles → 2·2/(3·2) = 2/3; vertices 2 and 3 have degree 2, one
	// triangle → 1.
	g := undirectedFromEdges(t, 4,
		[][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}}, nil)
	got := lccMap(t, g)
	want := map[int]float64{0: 2.0 / 3, 1: 2.0 / 3, 2: 1, 3: 1}
	if len(got) != len(want) {
		t.Fatalf("entries = %v, want %v", got, want)
	}
	for v, c := range want {
		if !almost(got[v], c) {
			t.Errorf("lcc(%d) = %v, want %v", v, got[v], c)
		}
	}
}

func TestLCCIgnoresSelfLoops(t *testing.T) {
	// A self-loop on a triangle vertex must not change any coefficient:
	// loops are stripped on a copy, like TriangleCount does.
	plain := undirectedFromEdges(t, 3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, nil)
	loops := undirectedFromEdges(t, 3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, []int{1})
	a, b := lccMap(t, plain), lccMap(t, loops)
	if len(a) != len(b) {
		t.Fatalf("loopy result %v, plain %v", b, a)
	}
	for v, c := range a {
		if !almost(b[v], c) {
			t.Errorf("lcc(%d) with loop = %v, want %v", v, b[v], c)
		}
	}
	// The graph itself is untouched: the loop is still stored.
	if loops.A.NVals() != 7 {
		t.Fatalf("graph mutated: nvals = %d, want 7", loops.A.NVals())
	}
}

// TestLCCMatchesReference compares against a brute-force count on random
// undirected graphs. The output is sparse: a vertex is stored iff its
// coefficient is non-zero.
func TestLCCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(25)
		var edges [][2]int
		linked := map[[2]int]bool{}
		adj := make([][]int, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					edges = append(edges, [2]int{i, j})
					linked[[2]int{i, j}] = true
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
				}
			}
		}
		got := lccMap(t, undirectedFromEdges(t, n, edges, nil))
		for v := 0; v < n; v++ {
			links := 0
			for _, a := range adj[v] {
				for _, b := range adj[v] {
					if linked[[2]int{a, b}] { // a < b by construction
						links++
					}
				}
			}
			want := 0.0
			if links > 0 {
				want = 2 * float64(links) / float64(len(adj[v])*(len(adj[v])-1))
			}
			c, stored := got[v]
			if stored != (want != 0) || !almost(c, want) {
				t.Fatalf("trial %d: lcc(%d) = %v (stored %v), want %v", trial, v, c, stored, want)
			}
		}
	}
}

func TestLCCRejectsDirected(t *testing.T) {
	A, _ := grb.MatrixFromTuples(3, 3, []int{0, 1}, []int{1, 2}, []float64{1, 1}, nil)
	g := mustGraph(t, A, AdjacencyDirected)
	if _, err := LocalClusteringCoefficient(bg, g); err == nil || IsWarning(err) {
		t.Fatal("directed graph accepted")
	}
}

func TestLCCCancellation(t *testing.T) {
	g := undirectedFromEdges(t, 3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, nil)
	if _, err := LocalClusteringCoefficient(cancelledCtx(), g); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
