package lagraph

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
)

// randDigraph builds a random directed graph with unit weights.
func randDigraph(rng *rand.Rand, n int, density float64) *grb.Matrix[float64] {
	var rows, cols []int
	var vals []float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				rows = append(rows, i)
				cols = append(cols, j)
				vals = append(vals, 1)
			}
		}
	}
	m, err := grb.MatrixFromTuples(n, n, rows, cols, vals, nil)
	if err != nil {
		panic(err)
	}
	return m
}

// randUndirected builds a random symmetric graph, optionally weighted.
func randUndirected(rng *rand.Rand, n int, density float64, maxW int) *grb.Matrix[float64] {
	var rows, cols []int
	var vals []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				w := 1.0
				if maxW > 1 {
					w = float64(1 + rng.Intn(maxW))
				}
				rows = append(rows, i, j)
				cols = append(cols, j, i)
				vals = append(vals, w, w)
			}
		}
	}
	m, err := grb.MatrixFromTuples(n, n, rows, cols, vals, nil)
	if err != nil {
		panic(err)
	}
	return m
}

func mustGraph[T grb.Value](t *testing.T, A *grb.Matrix[T], kind Kind) *Graph[T] {
	t.Helper()
	g, err := New(&A, kind)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// adjacencyList converts a graph matrix into out-neighbour lists for
// reference algorithms.
func adjacencyList[T grb.Value](A *grb.Matrix[T]) [][]int {
	n := A.NRows()
	out := make([][]int, n)
	rows, cols, _ := A.ExtractTuples()
	for k := range rows {
		out[rows[k]] = append(out[rows[k]], cols[k])
	}
	return out
}

// ---------------------------------------------------------------------------
// Graph object (paper Listing 1 / §II-A)

func TestNewMoveSemantics(t *testing.T) {
	A := randDigraph(rand.New(rand.NewSource(1)), 5, 0.3)
	keep := A
	g, err := New(&A, AdjacencyDirected)
	if err != nil {
		t.Fatal(err)
	}
	if A != nil {
		t.Fatal("New must nil the caller's matrix pointer (move constructor)")
	}
	if g.A != keep {
		t.Fatal("graph does not own the moved matrix")
	}
	if g.NDiag != -1 {
		t.Fatal("NDiag must start unknown (-1)")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New[float64](nil, AdjacencyDirected); StatusOf(err) != StatusNullPointer {
		t.Fatalf("nil pointer: %v", err)
	}
	var A *grb.Matrix[float64]
	if _, err := New(&A, AdjacencyDirected); StatusOf(err) != StatusNullPointer {
		t.Fatalf("nil matrix: %v", err)
	}
	B := grb.MustMatrix[float64](2, 2)
	if _, err := New(&B, Kind(99)); StatusOf(err) != StatusInvalidKind {
		t.Fatalf("bad kind: %v", err)
	}
}

func TestPropertyAT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := mustGraph(t, randDigraph(rng, 8, 0.3), AdjacencyDirected)
	if g.AT != nil {
		t.Fatal("AT must start unknown")
	}
	if err := g.PropertyAT(); err != nil {
		t.Fatal(err)
	}
	want := grb.NewTranspose(g.A)
	eq, err := IsEqual(g.AT, want)
	if err != nil || !eq {
		t.Fatalf("AT mismatch: %v", err)
	}
	// Second call warns instead of recomputing.
	if err := g.PropertyAT(); !IsWarning(err) {
		t.Fatalf("recompute should warn: %v", err)
	}
}

func TestPropertyATUndirectedAliasesA(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := mustGraph(t, randUndirected(rng, 8, 0.3, 1), AdjacencyUndirected)
	if err := g.PropertyAT(); err != nil {
		t.Fatal(err)
	}
	if g.AT != g.A {
		t.Fatal("undirected AT should alias A")
	}
}

func TestPropertyDegrees(t *testing.T) {
	A := grb.MustMatrix[float64](3, 3)
	A.SetElement(1, 0, 1)
	A.SetElement(1, 0, 2)
	A.SetElement(1, 2, 1)
	g := mustGraph(t, A, AdjacencyDirected)
	if err := g.PropertyRowDegree(); err != nil {
		t.Fatal(err)
	}
	if err := g.PropertyColDegree(); err != nil {
		t.Fatal(err)
	}
	d0, _ := g.RowDegree.ExtractElement(0)
	if d0 != 2 {
		t.Fatalf("rowdeg(0) = %d", d0)
	}
	if _, err := g.RowDegree.ExtractElement(1); !grb.IsNoValue(err) {
		t.Fatal("vertex with no out-edges must be absent from RowDegree")
	}
	c1, _ := g.ColDegree.ExtractElement(1)
	if c1 != 2 {
		t.Fatalf("coldeg(1) = %d", c1)
	}
}

func TestPropertySymmetryAndNDiag(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := mustGraph(t, randDigraph(rng, 10, 0.3), AdjacencyDirected)
	if err := g.PropertyASymmetricPattern(); err != nil {
		t.Fatal(err)
	}
	if g.ASymmetricPattern == BoolUnknown {
		t.Fatal("symmetry still unknown")
	}
	sym := mustGraph(t, randUndirected(rng, 10, 0.3, 1), AdjacencyDirected)
	if err := sym.PropertyASymmetricPattern(); err != nil {
		t.Fatal(err)
	}
	if sym.ASymmetricPattern != BoolTrue {
		t.Fatal("symmetric pattern not detected")
	}
	A := grb.MustMatrix[float64](3, 3)
	A.SetElement(1, 0, 0)
	A.SetElement(1, 1, 1)
	A.SetElement(1, 0, 2)
	gd := mustGraph(t, A, AdjacencyDirected)
	if err := gd.PropertyNDiag(); err != nil {
		t.Fatal(err)
	}
	if gd.NDiag != 2 {
		t.Fatalf("NDiag = %d, want 2", gd.NDiag)
	}
}

func TestDeleteProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := mustGraph(t, randDigraph(rng, 8, 0.3), AdjacencyDirected)
	g.PropertyAT()
	g.PropertyRowDegree()
	g.PropertyNDiag()
	g.DeleteProperties()
	if g.AT != nil || g.RowDegree != nil || g.ColDegree != nil || g.NDiag != -1 ||
		g.ASymmetricPattern != BoolUnknown {
		t.Fatal("DeleteProperties left stale state")
	}
}

func TestCheckGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := mustGraph(t, randUndirected(rng, 8, 0.3, 1), AdjacencyUndirected)
	if err := g.CheckGraph(); err != nil {
		t.Fatal(err)
	}
	// An asymmetric matrix claimed undirected must fail.
	bad := mustGraph(t, randDigraph(rng, 8, 0.3), AdjacencyUndirected)
	if err := bad.CheckGraph(); StatusOf(err) != StatusInvalidGraph {
		t.Fatalf("asymmetric undirected accepted: %v", err)
	}
	// A stale cached property must fail: the graph is not opaque, so a
	// user can break it (paper §V motivates CheckGraph with exactly this).
	g2 := mustGraph(t, randDigraph(rng, 8, 0.3), AdjacencyDirected)
	g2.AT = grb.MustMatrix[float64](3, 7)
	if err := g2.CheckGraph(); StatusOf(err) != StatusInvalidGraph {
		t.Fatalf("stale AT accepted: %v", err)
	}
}

// TestFromEdgeListChecksOrder holds FromEdgeList to gen.EdgeList's one
// invariant. Before it checked, the social-network example's symmetrised
// follower list (unsorted, every mutual follow twice) built a matrix of
// 22 916 entries for 20 218 edges whose triangle count read 90 514.
func TestFromEdgeListChecksOrder(t *testing.T) {
	bad := []*gen.EdgeList{
		{N: 3, Src: []int32{0, 0}, Dst: []int32{2, 1}}, // out of order in a row
		{N: 3, Src: []int32{1, 0}, Dst: []int32{0, 1}}, // rows out of order
		{N: 3, Src: []int32{0, 0}, Dst: []int32{1, 1}}, // repeated edge
		{N: 3, Src: []int32{0, 1}, Dst: []int32{1, 3}}, // vertex out of range
		{N: 3, Src: []int32{0, 1}, Dst: []int32{1, -1}},
	}
	for _, e := range bad {
		if g, err := FromEdgeList(e); StatusOf(err) != StatusInvalidGraph || g != nil {
			t.Errorf("FromEdgeList(%v -> %v) = %v, %v; want StatusInvalidGraph", e.Src, e.Dst, g, err)
		}
	}

	tw := gen.Twitter(11, 8, 7)
	sym := &gen.EdgeList{N: tw.N, Src: append(tw.Src, tw.Dst...), Dst: append(tw.Dst, tw.Src...)}
	if _, err := FromEdgeList(sym); StatusOf(err) != StatusInvalidGraph {
		t.Fatalf("symmetrised follower list accepted: %v", err)
	}
	sym.Dedup()
	g, err := FromEdgeList(sym)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.A.NVals(); got != 20218 {
		t.Fatalf("deduplicated list built %d entries, want 20218", got)
	}
	if err := g.CheckGraph(); err != nil {
		t.Fatal(err)
	}
	if tri, err := TriangleCount(context.Background(), g); tri != 57686 || (err != nil && !IsWarning(err)) {
		t.Fatalf("TriangleCount = %d, %v; want 57686", tri, err)
	}
}

func TestDisplayGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := mustGraph(t, randDigraph(rng, 6, 0.3), AdjacencyDirected)
	g.PropertyAT()
	var buf bytes.Buffer
	g.DisplayGraph(&buf)
	out := buf.String()
	for _, want := range []string{"directed", "6 nodes", "AT: cached", "RowDegree: unknown"} {
		if !strings.Contains(out, want) {
			t.Fatalf("display missing %q in:\n%s", want, out)
		}
	}
}

func TestSampleDegreeAndSortByDegree(t *testing.T) {
	// Star graph: hub 0 with 9 spokes.
	var rows, cols []int
	var vals []float64
	for i := 1; i < 10; i++ {
		rows = append(rows, 0, i)
		cols = append(cols, i, 0)
		vals = append(vals, 1, 1)
	}
	A, _ := grb.MatrixFromTuples(10, 10, rows, cols, vals, nil)
	g := mustGraph(t, A, AdjacencyUndirected)
	if _, _, err := g.SampleDegree(8); StatusOf(err) != StatusPropertyMissing {
		t.Fatal("SampleDegree must demand cached RowDegree")
	}
	g.PropertyRowDegree()
	mean, median, err := g.SampleDegree(10)
	if err != nil {
		t.Fatal(err)
	}
	if mean <= median {
		t.Fatalf("star graph: mean %v should exceed median %v", mean, median)
	}
	perm, err := g.SortByDegree(true)
	if err != nil {
		t.Fatal(err)
	}
	if perm[len(perm)-1] != 0 {
		t.Fatalf("hub should sort last ascending: %v", perm)
	}
}

// ---------------------------------------------------------------------------
// status conventions (paper §II-C, §II-D)

func TestStatusConventions(t *testing.T) {
	err := errf(StatusInvalidGraph, "boom %d", 7)
	if StatusOf(err) != StatusInvalidGraph {
		t.Fatal("status lost")
	}
	if MessageOf(err) != "boom 7" {
		t.Fatalf("msg = %q", MessageOf(err))
	}
	if StatusOf(nil) != StatusOK {
		t.Fatal("nil must be OK")
	}
	w := &Warning{Status: WarnCacheNotComputed, Msg: "cached"}
	if !IsWarning(w) || StatusOf(w) <= 0 {
		t.Fatal("warning must be positive status")
	}
	long := strings.Repeat("x", 2*MsgLen)
	if len(MessageOf(errf(StatusIO, "%s", long))) != MsgLen {
		t.Fatal("message not truncated to MsgLen")
	}
}

func TestIsEqualAndIsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	A := randDigraph(rng, 6, 0.4)
	eq, err := IsEqual(A, A.Dup())
	if err != nil || !eq {
		t.Fatalf("self equality: %v %v", eq, err)
	}
	B := A.Dup()
	B.SetElement(42, 0, 0)
	eq, _ = IsEqual(A, B)
	if eq {
		t.Fatal("different matrices equal")
	}
	// IsAll with tolerance comparator.
	C := A.Dup()
	ok, err := IsAll(A, C, func(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 })
	if err != nil || !ok {
		t.Fatalf("IsAll tolerance: %v %v", ok, err)
	}
	// Different dimensions are simply unequal.
	D := grb.MustMatrix[float64](2, 2)
	eq, err = IsEqual(A, D)
	if err != nil || eq {
		t.Fatalf("dim mismatch: %v %v", eq, err)
	}
}

// TestPattern: Pattern (paper §V) returns a bool matrix of A's shape that
// is true at exactly A's stored entries, a stored zero included, and
// leaves A as it was.
func TestPattern(t *testing.T) {
	A := randUndirected(rand.New(rand.NewSource(9)), 12, 0.3, 9)
	if err := A.SetElement(0, 3, 3); err != nil {
		t.Fatal(err)
	}
	before := A.Dup()
	P, err := Pattern(A)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := P.Dims(); r != 12 || c != 12 || P.NVals() != A.NVals() {
		t.Fatalf("pattern is %d×%d with %d entries, A 12×12 with %d", r, c, P.NVals(), A.NVals())
	}
	rows, cols, _ := A.ExtractTuples()
	for k := range rows {
		if x, err := P.ExtractElement(rows[k], cols[k]); err != nil || !x {
			t.Fatalf("pattern(%d,%d) = %v (%v), want true", rows[k], cols[k], x, err)
		}
	}
	if eq, err := IsEqual(A, before); err != nil || !eq {
		t.Fatalf("Pattern changed A (%v)", err)
	}
}

func TestTicToc(t *testing.T) {
	tm := Tic()
	if tm.Toc() < 0 {
		t.Fatal("negative elapsed time")
	}
}

// TestParseKindInvertsKindName: the two kind names round-trip and nothing
// else parses — case and whitespace included, since the store's meta.json
// carries exactly KindName's output.
func TestParseKindInvertsKindName(t *testing.T) {
	for _, k := range []Kind{AdjacencyUndirected, AdjacencyDirected} {
		got, err := ParseKind(KindName(k))
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", KindName(k), got, err, k)
		}
	}
	for _, bad := range []string{"", "unknown", "Directed", " directed", "bipartite", KindName(Kind(7))} {
		if _, err := ParseKind(bad); StatusOf(err) != StatusInvalidKind {
			t.Errorf("ParseKind(%q) = %v, want StatusInvalidKind", bad, err)
		}
	}
}
