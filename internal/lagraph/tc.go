package lagraph

import (
	"context"

	"lagraph/internal/grb"
)

// Triangle counting (paper §IV-E, Algorithm 6): count unique 3-cliques of
// an undirected graph. The paper's method masks a plus.pair matrix
// multiply with the lower triangle and optionally presorts the graph by
// ascending degree; SS:GrB executes the masked C⟨s(L)⟩ = L·Uᵀ with a dot
// kernel, which this implementation reproduces.

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
// on the graph), polling ctx between the formulation's phases.
func TriangleCountAdvanced[T grb.Value](ctx context.Context, g *Graph[T], method TCMethod, presort bool) (int64, error) {
	if err := validateGraph(g, "TriangleCountAdvanced"); err != nil {
		return 0, err
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
	if presort {
		if g.CachedRowDegree() == nil {
			return 0, errf(StatusPropertyMissing, "TriangleCountAdvanced: presort needs RowDegree cached")
		}
		perm, err := g.SortByDegree(true)
		if err != nil {
			return 0, err
		}
		permuted := grb.MustMatrix[T](n, n)
		if err := grb.ExtractSubmatrix(permuted, grb.NoMask, nil, A, perm, perm, nil); err != nil {
			return 0, wrap(StatusInvalidValue, err, "TriangleCountAdvanced permute")
		}
		A = permuted
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var zero T
	tril := func() (*grb.Matrix[T], error) {
		L := grb.MustMatrix[T](n, n)
		if err := grb.Select(L, grb.NoMask, nil, grb.Tril[T](), A, zero, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "tril")
		}
		return L, nil
	}
	triu := func() (*grb.Matrix[T], error) {
		U := grb.MustMatrix[T](n, n)
		if err := grb.Select(U, grb.NoMask, nil, grb.Triu[T](), A, zero, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "triu")
		}
		return U, nil
	}
	semiring := grb.PlusPair[T, T, int64]()
	C := grb.MustMatrix[int64](n, n)
	switch method {
	case TCSandiaLUT:
		L, err := tril()
		if err != nil {
			return 0, err
		}
		U, err := triu()
		if err != nil {
			return 0, err
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		// C⟨s(L)⟩ = L plus.pair Uᵀ — SS:GrB uses a dot product here
		// because U is transposed via the descriptor (paper §IV-E).
		if err := grb.MxM(C, grb.StructMaskOf(L), nil, semiring, L, U, grb.DescT1); err != nil {
			return 0, wrap(StatusInvalidValue, err, "TC masked dot")
		}
		if prb.Enabled() {
			prb.Add("nnz_c", int64(C.NVals()))
		}
		return grb.ReduceMatrixToScalar(grb.PlusMonoid[int64](), C), nil
	case TCSandiaLL:
		L, err := tril()
		if err != nil {
			return 0, err
		}
		if err := grb.MxM(C, grb.StructMaskOf(L), nil, semiring, L, L, nil); err != nil {
			return 0, wrap(StatusInvalidValue, err, "TC LL saxpy")
		}
		if prb.Enabled() {
			prb.Add("nnz_c", int64(C.NVals()))
		}
		return grb.ReduceMatrixToScalar(grb.PlusMonoid[int64](), C), nil
	case TCBurkhardt:
		if err := grb.MxM(C, grb.StructMaskOf(A), nil, semiring, A, A, nil); err != nil {
			return 0, wrap(StatusInvalidValue, err, "TC Burkhardt")
		}
		if prb.Enabled() {
			prb.Add("nnz_c", int64(C.NVals()))
		}
		return grb.ReduceMatrixToScalar(grb.PlusMonoid[int64](), C) / 6, nil
	case TCCohen:
		L, err := tril()
		if err != nil {
			return 0, err
		}
		U, err := triu()
		if err != nil {
			return 0, err
		}
		if err := grb.MxM(C, grb.StructMaskOf(A), nil, semiring, L, U, nil); err != nil {
			return 0, wrap(StatusInvalidValue, err, "TC Cohen")
		}
		if prb.Enabled() {
			prb.Add("nnz_c", int64(C.NVals()))
		}
		return grb.ReduceMatrixToScalar(grb.PlusMonoid[int64](), C) / 2, nil
	default:
		return 0, errf(StatusInvalidValue, "TriangleCountAdvanced: unknown method %d", method)
	}
}
