package lagraph

import (
	"context"

	"lagraph/internal/grb"
)

// Triangle counting (paper §IV-E, Algorithm 6): count unique 3-cliques of
// an undirected graph. The paper's method masks a plus.pair matrix
// multiply with the lower triangle and optionally presorts the graph by
// ascending degree; SS:GrB executes the masked C⟨s(L)⟩ = L·Uᵀ with a dot
// kernel, which this implementation reproduces. The other three
// formulations differ from it only in their operands, so all four are one
// table row feeding the same masked multiply and reduce.

// TCMethod selects the formulation (the experimental LAGraph repository
// carries the same family).
type TCMethod int

const (
	// TCSandiaLUT is Algorithm 6: C⟨s(L)⟩ = L plus.pair Uᵀ (dot kernel).
	TCSandiaLUT TCMethod = iota
	// TCSandiaLL computes C⟨s(L)⟩ = L plus.pair L (saxpy kernel).
	TCSandiaLL
	// TCBurkhardt computes Σ((A²) ∩ A) / 6.
	TCBurkhardt
	// TCCohen computes Σ((L·U) ∩ A) / 2.
	TCCohen
)

// String names the formulation for reports and logs.
func (m TCMethod) String() string {
	switch m {
	case TCSandiaLUT:
		return "sandia-lut"
	case TCSandiaLL:
		return "sandia-ll"
	case TCBurkhardt:
		return "burkhardt"
	case TCCohen:
		return "cohen"
	default:
		return "unknown"
	}
}

// TriangleCount is the Basic-mode entry: it verifies the graph is
// undirected with no self-edges (removing them on a temporary copy if
// needed), caches NDiag and RowDegree (reported by a WarnCacheNotComputed
// warning), and runs Algorithm 6 with the presort decided by SampleDegree.
// TC has no iteration loop — it is a handful of O(nnz)+ phases (diagonal
// strip, degree sort, masked multiply) — so ctx is polled between phases,
// the finest granularity the formulation admits.
func TriangleCount[T grb.Value](ctx context.Context, g *Graph[T]) (int64, error) {
	work, computed, err := withoutSelfEdges(ctx, g, "TriangleCount")
	if err != nil {
		return 0, err
	}
	// Algorithm 6 line 2-5: sample degrees; sort if mean > 4 * median.
	mean, median, err := work.SampleDegree(64)
	if err != nil {
		return 0, err
	}
	count, err := TriangleCountAdvanced(ctx, work, TCSandiaLUT, mean > 4*median)
	if err != nil {
		return 0, err
	}
	return count, cacheWarning("TriangleCount", computed)
}

// withoutSelfEdges is the Basic-mode preamble TriangleCount and
// LocalClusteringCoefficient share: it verifies g is undirected, caches
// NDiag, strips self-edges on a copy when there are any (the graph itself
// is left untouched), and makes sure RowDegree is cached on the graph it
// returns. computed reports whether anything was cached on g itself.
func withoutSelfEdges[T grb.Value](ctx context.Context, g *Graph[T], op string) (work *Graph[T], computed bool, err error) {
	if err := validateGraph(g, op); err != nil {
		return nil, false, err
	}
	if g.Kind != AdjacencyUndirected {
		return nil, false, errf(StatusInvalidGraph, "%s: requires an undirected graph", op)
	}
	if computed, err = ensureCached(ctx, g, PropNDiag); err != nil {
		return nil, false, err
	}
	work = g
	if g.CachedNDiag() > 0 {
		var zero T
		stripped := grb.MustMatrix[T](g.A.NRows(), g.A.NCols())
		if err := grb.Select(stripped, grb.NoMask, nil, grb.Offdiag[T](), g.A, zero, nil); err != nil {
			return nil, false, wrap(StatusInvalidValue, err, op+" strip diagonal")
		}
		if work, err = New(&stripped, AdjacencyUndirected); err != nil {
			return nil, false, err
		}
	}
	degreeComputed, err := ensureCached(ctx, work, PropRowDegree)
	if err != nil {
		return nil, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	return work, computed || (degreeComputed && work == g), nil
}

// TriangleCountAdvanced runs a chosen method (Advanced mode: RowDegree
// must be cached when presort is requested; nothing is computed or cached
// on the graph), polling ctx between the formulation's phases. Every
// method is one masked plus.pair multiply C⟨s(M)⟩ = X·Y and one reduce,
// Σ C / divisor; they differ only in the operands (A or its triangles L
// and U), whether Y is transposed, and how often each triangle is counted.
func TriangleCountAdvanced[T grb.Value](ctx context.Context, g *Graph[T], method TCMethod, presort bool) (int64, error) {
	if err := validateGraph(g, "TriangleCountAdvanced"); err != nil {
		return 0, err
	}
	if method < TCSandiaLUT || method > TCCohen {
		return 0, errf(StatusInvalidValue, "TriangleCountAdvanced: unknown method %d", method)
	}
	prb := ProbeFrom(ctx)
	prb.SetMethod(method.String())
	A := g.A
	n := A.NRows()
	if prb.Enabled() {
		prb.Add("nnz", int64(A.NVals()))
		if presort {
			prb.Add("presorted", 1)
		}
	}
	lower, upper := grb.Tril[T](), grb.Triu[T]()
	if presort {
		if g.CachedRowDegree() == nil {
			return 0, errf(StatusPropertyMissing, "TriangleCountAdvanced: presort needs RowDegree cached")
		}
		perm, err := g.SortByDegree(true)
		if err != nil {
			return 0, err
		}
		// rank(v) is v's place in ascending (degree, id) order: L and U are
		// A(perm, perm)'s triangles, selected from A with no permuted copy.
		rank := make([]int, n)
		for r, v := range perm {
			rank[v] = r
		}
		lower.F = func(_ T, i, j int, _ T) bool { return rank[j] <= rank[i] }
		upper.F = func(_ T, i, j int, _ T) bool { return rank[j] >= rank[i] }
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var zero T
	triangle := func(op grb.IndexUnaryOp[T]) (*grb.Matrix[T], error) {
		X := grb.MustMatrix[T](n, n)
		return X, wrap(StatusInvalidValue, grb.Select(X, grb.NoMask, nil, op, A, zero, nil), "TC triangle")
	}
	var L, U *grb.Matrix[T]
	var err error
	if method != TCBurkhardt {
		if L, err = triangle(lower); err != nil {
			return 0, err
		}
	}
	if method == TCSandiaLUT || method == TCCohen {
		if U, err = triangle(upper); err != nil {
			return 0, err
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	f := [...]struct {
		mask, X, Y *grb.Matrix[T]
		desc       *grb.Descriptor
		divisor    int64
	}{
		// Algorithm 6: C⟨s(L)⟩ = L plus.pair Uᵀ. SS:GrB uses a dot product
		// here because U is transposed via the descriptor (paper §IV-E).
		TCSandiaLUT: {L, L, U, grb.DescT1, 1},
		TCSandiaLL:  {L, L, L, nil, 1}, // the saxpy kernel
		TCBurkhardt: {A, A, A, nil, 6}, // once per ordered pair of its vertices
		TCCohen:     {A, L, U, nil, 2}, // twice, at the edge its least vertex faces
	}[method]
	C := grb.MustMatrix[int64](n, n)
	if err := grb.MxM(C, grb.StructMaskOf(f.mask), nil, grb.PlusPair[T, T, int64](), f.X, f.Y, f.desc); err != nil {
		return 0, wrap(StatusInvalidValue, err, "TC masked multiply")
	}
	if prb.Enabled() {
		prb.Add("nnz_c", int64(C.NVals()))
	}
	return grb.ReduceMatrixToScalar(grb.PlusMonoid[int64](), C) / f.divisor, nil
}
