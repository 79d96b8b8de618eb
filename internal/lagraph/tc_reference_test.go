package lagraph

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/parallel"
)

// tcPermuted is TriangleCountAdvanced as the permuting presort wrote it:
// A(perm, perm) is built by ExtractSubmatrix from SortByDegree's ascending
// permutation, and L and U are its Tril and Triu, fed to the same masked
// multiply. It records the same probe counters (nnz, presorted, nnz_c).
func tcPermuted(t *testing.T, g *Graph[float64], method TCMethod, presort bool, prb *Probe) int64 {
	t.Helper()
	prb.SetMethod(method.String())
	A := g.A
	n := A.NRows()
	prb.Add("nnz", int64(A.NVals()))
	if presort {
		prb.Add("presorted", 1)
		perm, err := g.SortByDegree(true)
		if err != nil {
			t.Fatal(err)
		}
		A = grb.MustMatrix[float64](n, n)
		if err := grb.ExtractSubmatrix(A, grb.NoMask, nil, g.A, perm, perm, nil); err != nil {
			t.Fatal(err)
		}
	}
	triangle := func(op grb.IndexUnaryOp[float64]) *grb.Matrix[float64] {
		X := grb.MustMatrix[float64](n, n)
		if err := grb.Select(X, grb.NoMask, nil, op, A, 0, nil); err != nil {
			t.Fatal(err)
		}
		return X
	}
	L, U := triangle(grb.Tril[float64]()), triangle(grb.Triu[float64]())
	f := [...]struct {
		mask, X, Y *grb.Matrix[float64]
		desc       *grb.Descriptor
		divisor    int64
	}{
		TCSandiaLUT: {L, L, U, grb.DescT1, 1},
		TCSandiaLL:  {L, L, L, nil, 1},
		TCBurkhardt: {A, A, A, nil, 6},
		TCCohen:     {A, L, U, nil, 2},
	}[method]
	C := grb.MustMatrix[int64](n, n)
	if err := grb.MxM(C, grb.StructMaskOf(f.mask), nil, grb.PlusPair[float64, float64, int64](), f.X, f.Y, f.desc); err != nil {
		t.Fatal(err)
	}
	prb.Add("nnz_c", int64(C.NVals()))
	return grb.ReduceMatrixToScalar(grb.PlusMonoid[int64](), C) / f.divisor
}

// TestTriangleCountRankMatchesPermuted holds the degree-rank presort to the
// permuted copy it replaced: for every method, presort on and off, at one
// worker and at four, the count and every probe counter (nnz, presorted,
// nnz_c) equal tcPermuted's, taken once at one worker. The graphs are
// Kron 10 and 12, Urand 10, a 32×32 road grid, three hubs over a ring
// whose 197 vertices all tie at degree 5, and Urand 10's edges with a
// self-edge at every third vertex (Advanced mode counts them as Tril and
// Triu keep them).
func TestTriangleCountRankMatchesPermuted(t *testing.T) {
	defer parallel.SetMaxThreads(parallel.SetMaxThreads(1))
	graphs := map[string]*Graph[float64]{
		"Kron 10":  graphFromEdges(t, gen.Kron(10, 8, 1)),
		"Kron 12":  graphFromEdges(t, gen.Kron(12, 8, 1)),
		"Urand 10": graphFromEdges(t, gen.Urand(10, 8, 1)),
		"Road 32":  graphFromEdges(t, gen.Road(32, 1)),
	}
	const n, hubs = 200, 3
	var edges [][2]int
	for v := hubs; v < n; v++ {
		for h := 0; h < hubs; h++ {
			edges = append(edges, [2]int{h, v})
		}
		edges = append(edges, [2]int{v, hubs + (v-hubs+1)%(n-hubs)})
	}
	graphs["hubs over a ring"] = undirectedFromEdges(t, n, edges, nil)
	e := gen.Urand(10, 8, 1)
	edges = edges[:0]
	for k := range e.Src {
		if e.Src[k] < e.Dst[k] {
			edges = append(edges, [2]int{int(e.Src[k]), int(e.Dst[k])})
		}
	}
	var loops []int
	for v := 0; v < e.N; v += 3 {
		loops = append(loops, v)
	}
	graphs["self-edges"] = undirectedFromEdges(t, e.N, edges, loops)
	if g := graphs["self-edges"]; g.PropertyNDiag() != nil || g.CachedNDiag() == 0 {
		t.Fatal("the self-edge graph holds no self-edge")
	}
	for _, name := range slices.Sorted(maps.Keys(graphs)) {
		g := graphs[name]
		g.PropertyRowDegree()
		t.Run(name, func(t *testing.T) {
			for _, m := range []TCMethod{TCSandiaLUT, TCSandiaLL, TCBurkhardt, TCCohen} {
				for _, presort := range []bool{false, true} {
					parallel.SetMaxThreads(1)
					want := NewProbe(0)
					ref, ws := tcPermuted(t, g, m, presort, want), want.Snapshot()
					for _, threads := range []int{1, 4} {
						parallel.SetMaxThreads(threads)
						label := fmt.Sprintf("%v, presort %v, %d workers", m, presort, threads)
						got := NewProbe(0)
						count, err := TriangleCountAdvanced(WithProbe(bg, got), g, m, presort)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if count != ref {
							t.Fatalf("%s: %d triangles, the permuted copy %d", label, count, ref)
						}
						if gs := got.Snapshot(); gs.Method != ws.Method || !maps.Equal(gs.Counters, ws.Counters) {
							t.Fatalf("%s: probe %q %v, the permuted copy %q %v", label, gs.Method, gs.Counters, ws.Method, ws.Counters)
						}
					}
				}
			}
		})
	}
}

// stableDegreeOrder is SortByDegree as a comparison sort: sort.SliceStable
// over the vertex ids by degree, ties by id.
func stableDegreeOrder(deg []int64, ascending bool) []int {
	perm := make([]int, len(deg))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		da, db := deg[perm[a]], deg[perm[b]]
		if da != db {
			if ascending {
				return da < db
			}
			return da > db
		}
		return perm[a] < perm[b]
	})
	return perm
}

// TestSortByDegreeMatchesStableSort holds the counting sort to the
// comparison sort it replaced, ascending and descending, on directed
// graphs whose out-degrees are random with heavy ties (drawn from 1, 2, 4
// or n+1 values), n = 0, 1, 2, 17 and 300.
func TestSortByDegreeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{0, 1, 2, 17, 300} {
		for _, spread := range []int{1, 2, 4, n + 1} {
			for trial := 0; trial < 3; trial++ {
				deg := make([]int64, n)
				var rows, cols []int
				for i := range deg {
					deg[i] = int64(rng.Intn(min(spread, n+1))) // at most n columns a row
					for j := 0; j < int(deg[i]); j++ {
						rows, cols = append(rows, i), append(cols, j)
					}
				}
				A, err := grb.MatrixFromTuples(n, n, rows, cols, make([]float64, len(rows)), nil)
				if err != nil {
					t.Fatal(err)
				}
				g := mustGraph(t, A, AdjacencyDirected)
				g.PropertyRowDegree()
				for _, ascending := range []bool{true, false} {
					got, err := g.SortByDegree(ascending)
					if err != nil {
						t.Fatal(err)
					}
					if want := stableDegreeOrder(deg, ascending); len(got) != n || !slices.Equal(got, want) {
						t.Fatalf("n %d, degrees %v, ascending %v: %v, the stable sort %v", n, deg, ascending, got, want)
					}
				}
			}
		}
	}
}
