package experimental

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

// bg is the root context of tests that have nothing to cancel.
var bg = context.Background()

func randUndirected(rng *rand.Rand, n int, density float64) *lagraph.Graph[float64] {
	var rows, cols []int
	var vals []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				rows = append(rows, i, j)
				cols = append(cols, j, i)
				vals = append(vals, 1, 1)
			}
		}
	}
	A, err := grb.MatrixFromTuples(n, n, rows, cols, vals, nil)
	if err != nil {
		panic(err)
	}
	g, err := lagraph.New(&A, lagraph.AdjacencyUndirected)
	if err != nil {
		panic(err)
	}
	return g
}

// edgeSet extracts the adjacency as a set of ordered pairs.
func edgeSet[T grb.Value](A *grb.Matrix[T]) map[[2]int]bool {
	out := map[[2]int]bool{}
	rows, cols, _ := A.ExtractTuples()
	for k := range rows {
		out[[2]int{rows[k], cols[k]}] = true
	}
	return out
}

// refKTruss iteratively strips edges with support < k-2.
func refKTruss(edges map[[2]int]bool, k int) map[[2]int]bool {
	cur := map[[2]int]bool{}
	for e := range edges {
		cur[e] = true
	}
	for {
		drop := [][2]int{}
		for e := range cur {
			i, j := e[0], e[1]
			support := 0
			for f := range cur {
				if f[0] == i && cur[[2]int{f[1], j}] && cur[[2]int{j, f[1]}] {
					support++
				}
			}
			if support < k-2 {
				drop = append(drop, e)
			}
		}
		if len(drop) == 0 {
			return cur
		}
		for _, e := range drop {
			delete(cur, e)
			delete(cur, [2]int{e[1], e[0]})
		}
	}
}

func TestKTrussMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(14)
		g := randUndirected(rng, n, 0.4)
		for _, k := range []int{3, 4} {
			got, err := KTruss(bg, g, k)
			if err != nil {
				t.Fatal(err)
			}
			want := refKTruss(edgeSet(g.A), k)
			gotSet := edgeSet(got)
			if len(gotSet) != len(want) {
				t.Fatalf("k=%d: %d edges, want %d", k, len(gotSet), len(want))
			}
			for e := range want {
				if !gotSet[e] {
					t.Fatalf("k=%d: missing edge %v", k, e)
				}
			}
		}
	}
}

func TestKTrussSupportValues(t *testing.T) {
	// K4: every edge has support 2 — it is a 4-truss.
	var rows, cols []int
	var vals []float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				rows = append(rows, i)
				cols = append(cols, j)
				vals = append(vals, 1)
			}
		}
	}
	A, _ := grb.MatrixFromTuples(4, 4, rows, cols, vals, nil)
	g, _ := lagraph.New(&A, lagraph.AdjacencyUndirected)
	tr, err := KTruss(bg, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NVals() != 12 {
		t.Fatalf("K4 4-truss must keep all 12 directed edges, got %d", tr.NVals())
	}
	_, _, sup := tr.ExtractTuples()
	for _, s := range sup {
		if s != 2 {
			t.Fatalf("K4 edge support %d, want 2", s)
		}
	}
	// But a 5-truss of K4 is empty.
	tr5, err := KTruss(bg, g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr5.NVals() != 0 {
		t.Fatalf("K4 5-truss should be empty, got %d edges", tr5.NVals())
	}
}

func TestKTrussValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randUndirected(rng, 5, 0.5)
	if _, err := KTruss(bg, g, 2); err == nil {
		t.Fatal("k=2 accepted")
	}
	// Directed graphs are rejected.
	A := grb.MustMatrix[float64](3, 3)
	A.SetElement(1, 0, 1)
	dg, _ := lagraph.New(&A, lagraph.AdjacencyDirected)
	if _, err := KTruss(bg, dg, 3); err == nil {
		t.Fatal("directed graph accepted")
	}
	if _, err := MaximalIndependentSet(bg, dg, 1); err == nil {
		t.Fatal("MIS on directed graph accepted")
	}
}

func TestMISIsIndependentAndMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(60)
		g := randUndirected(rng, n, 0.15)
		mis, err := MaximalIndependentSet(bg, g, uint64(trial)+1)
		if err != nil {
			t.Fatal(err)
		}
		member := make([]bool, n)
		mis.Iterate(func(i int, v bool) { member[i] = v })
		edges := edgeSet(g.A)
		// Independence: no edge inside the set.
		for e := range edges {
			if member[e[0]] && member[e[1]] {
				t.Fatalf("edge %v inside the independent set", e)
			}
		}
		// Maximality: every non-member has a member neighbour.
		for v := 0; v < n; v++ {
			if member[v] {
				continue
			}
			hasMemberNbr := false
			for e := range edges {
				if e[0] == v && member[e[1]] {
					hasMemberNbr = true
					break
				}
			}
			if !hasMemberNbr {
				t.Fatalf("vertex %d could still join the set", v)
			}
		}
	}
}

func TestMISIncludesIsolatedVertices(t *testing.T) {
	// Two isolated vertices and one edge.
	A, _ := grb.MatrixFromTuples(4, 4, []int{0, 1}, []int{1, 0}, []float64{1, 1}, nil)
	g, _ := lagraph.New(&A, lagraph.AdjacencyUndirected)
	mis, err := MaximalIndependentSet(bg, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{2, 3} {
		if _, err := mis.ExtractElement(v); err != nil {
			t.Fatalf("isolated vertex %d not in MIS", v)
		}
	}
	if mis.NVals() != 3 { // one endpoint + two isolated
		t.Fatalf("MIS size %d, want 3", mis.NVals())
	}
}

// TestExperimentalKernelsObservePreCancelledContext is the experimental
// half of lagraph's TestAllAlgorithmsObservePreCancelledContext: every
// kernel here takes ctx first and polls it once per round.
func TestExperimentalKernelsObservePreCancelledContext(t *testing.T) {
	g := randUndirected(rand.New(rand.NewSource(6)), 20, 0.3)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"KTruss", func() error { _, err := KTruss(ctx, g, 3); return err }},
		{"MaximalIndependentSet", func() error { _, err := MaximalIndependentSet(ctx, g, 1); return err }},
		{"BellmanFord", func() error { _, _, err := BellmanFord(ctx, g, 0); return err }},
		{"CommunityDetectionLabelPropagation", func() error { _, err := CommunityDetectionLabelPropagation(ctx, g, 5); return err }},
	} {
		if err := tc.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
	}
}
