package lagraph

import (
	"context"

	"lagraph/internal/grb"
)

// Local clustering coefficient, after LAGraph's experimental LAGraph_lcc:
// for every vertex v of an undirected graph, the fraction of its
// neighbour pairs that are themselves connected,
//
//	lcc(v) = 2·tri(v) / (deg(v)·(deg(v)−1))
//
// where tri(v) is the number of triangles containing v. In linear
// algebra the whole computation is one masked plus.pair matrix multiply,
// a row reduction and one divide: C⟨s(A)⟩ = A plus.pair A counts, for
// every edge (v,w), the common neighbours of v and w — the triangles
// through that edge — the row sums t of C give 2·tri(v) (each triangle at
// v is seen by both of its v-incident edges), and an intersection of t
// with the degree vector divides by deg(v)·(deg(v)−1).

// LocalClusteringCoefficient is the Basic-mode entry: it verifies the
// graph is undirected, strips self-edges (which are not triangles) on a
// temporary copy if needed, caching NDiag and RowDegree (reported by a
// WarnCacheNotComputed warning), and returns a sparse vector of
// coefficients — vertices in no triangle are absent (coefficient 0). Like
// triangle counting it has no iteration loop, so ctx is polled between
// its O(nnz) phases.
func LocalClusteringCoefficient[T grb.Value](ctx context.Context, g *Graph[T]) (*grb.Vector[float64], error) {
	work, computed, err := withoutSelfEdges(ctx, g, "LocalClusteringCoefficient")
	if err != nil {
		return nil, err
	}
	prb := ProbeFrom(ctx)
	A := work.A
	n := A.NRows()
	if prb.Enabled() {
		prb.Add("nnz", int64(A.NVals()))
	}

	// C⟨s(A)⟩ = A plus.pair A: C(v,w) = |N(v) ∩ N(w)| on edges (v,w).
	C := grb.MustMatrix[int64](n, n)
	if err := grb.MxM(C, grb.StructMaskOf(A), nil, grb.PlusPair[T, T, int64](), A, A, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "LCC masked wedge count")
	}
	if prb.Enabled() {
		prb.Add("nnz_c", int64(C.NVals()))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// t(v) = Σ_w C(v,w) = 2·tri(v); present only where a triangle exists.
	t := grb.MustVector[int64](n)
	if err := grb.ReduceMatrixToVector(t, grb.NoVMask, nil, grb.PlusMonoid[int64](), C, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "LCC row reduce")
	}

	// lcc(v) = t(v) / (deg(v)·(deg(v)−1)). A vertex with a stored t entry
	// is in a triangle, hence deg(v) >= 2 and its denominator is positive —
	// the intersection never divides by zero.
	lcc := grb.MustVector[float64](n)
	if err := grb.EWiseMultV(lcc, grb.NoVMask, nil, grb.BinaryOp[int64, int64, float64]{
		Name: "lcc", F: func(t, d int64) float64 { return float64(t) / (float64(d) * float64(d-1)) },
	}, t, work.CachedRowDegree(), nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "LCC divide")
	}
	return lcc, cacheWarning("LocalClusteringCoefficient", computed)
}
