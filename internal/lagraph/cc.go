package lagraph

import (
	"context"

	"lagraph/internal/grb"
)

// Connected components (paper §IV-F, Algorithm 7): the FastSV algorithm of
// Zhang, Azad and Buluç. A forest of trees is kept in a parent vector f;
// stochastic hooking, aggressive hooking and shortcutting merge trees until
// a fixed point. The linear-algebra kernels are an mxv on min.second (the
// minimum neighbouring grandparent) and min-combining scatters/gathers. The
// grandparent a round gathers and the one it compares with swap, uncopied.
// min.second never reads the matrix's values, so a directed graph is
// symmetrised as A ∪ Aᵀ in A's own type, with no pattern copy.

// ConnectedComponents is the Basic-mode entry point. Directed graphs whose
// pattern is not known to be symmetric are handled by operating on
// A ∪ Aᵀ (weak components), which caches the transpose. ctx is polled once
// per hooking/shortcutting round, returning ctx.Err() once it is done.
func ConnectedComponents[T grb.Value](ctx context.Context, g *Graph[T]) (*grb.Vector[int64], error) {
	if err := validateGraph(g, "ConnectedComponents"); err != nil {
		return nil, err
	}
	if g.A.NRows() != g.A.NCols() {
		return nil, errf(StatusInvalidGraph, "ConnectedComponents: adjacency matrix not square")
	}
	if symmetricPattern(g) {
		return fastSV(ctx, g.A)
	}
	computed, err := ensureCached(ctx, g, PropAT)
	if err != nil {
		return nil, err
	}
	// S = A ∪ Aᵀ in A's own type: min.second reads only its pattern.
	S := grb.MustMatrix[T](g.A.NRows(), g.A.NCols())
	if err := grb.EWiseAdd(S, grb.NoMask, nil, grb.AddOp(grb.First[T, T]()), g.A, g.CachedAT(), nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "symmetrise")
	}
	labels, err := fastSV(ctx, S)
	if err != nil {
		return nil, err
	}
	return labels, cacheWarning("ConnectedComponents", computed)
}

// ConnectedComponentsAdvanced runs FastSV directly on G.A, requiring the
// caller to guarantee a symmetric pattern (undirected kind, or the
// ASymmetricPattern property cached as true). ctx is polled once per
// hooking/shortcutting round.
func ConnectedComponentsAdvanced[T grb.Value](ctx context.Context, g *Graph[T]) (*grb.Vector[int64], error) {
	if err := validateGraph(g, "ConnectedComponentsAdvanced"); err != nil {
		return nil, err
	}
	if !symmetricPattern(g) {
		return nil, errf(StatusPropertyMissing,
			"ConnectedComponentsAdvanced: pattern symmetry unknown; cache ASymmetricPattern or use the Basic entry point")
	}
	return fastSV(ctx, g.A)
}

// symmetricPattern reports whether pattern(A) is known to equal
// pattern(Aᵀ): an undirected graph, or the property cached as true.
func symmetricPattern[T grb.Value](g *Graph[T]) bool {
	return g.Kind == AdjacencyUndirected || g.CachedSymmetry() == BoolTrue
}

// fastSV is Algorithm 7 on a matrix with a symmetric pattern; min.second
// never reads its values. ctx is polled once per round.
func fastSV[T grb.Value](ctx context.Context, S *grb.Matrix[T]) (*grb.Vector[int64], error) {
	prb := ProbeFrom(ctx)
	n := S.NRows()
	if n == 0 {
		return grb.MustVector[int64](0), nil
	}
	// f = [0, 1, ..., n-1]: every vertex its own tree.
	f := grb.DenseVector(n, int64(0))
	if err := grb.ApplyV(f, grb.NoVMask, nil, grb.RowIndexOp[int64, int64](), f, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "fastsv init")
	}
	gf, next, mngf := f.Dup(), f.Dup(), f.Dup() // next: step 4's grandparent
	diff := grb.DenseVector(n, int64(0))
	// {i, x} ↤ f: the parent array used as scatter indices.
	x := make([]int, n)
	parents := func(i int, v int64) { x[i] = int(v) }
	f.Iterate(parents)
	minOp := func(a, b int64) int64 {
		if b < a {
			return b
		}
		return a
	}
	semiring := grb.MinSecond[T, int64]()
	for round := 1; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// mngf(i) = min over neighbours k of gf(k), keeping the previous
		// value (accumulate with min): steps 1's first two lines.
		if err := grb.MxV(mngf, grb.NoVMask, minOp, semiring, S, gf, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "fastsv mngf")
		}
		// Step 1, stochastic hooking: f(x) min= mngf.
		if err := grb.AssignVector(f, grb.NoVMask, minOp, mngf, x, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "fastsv hook")
		}
		// Step 2, aggressive hooking: f = f min∪ mngf.
		if err := grb.EWiseAddV(f, grb.NoVMask, nil, grb.MinOp[int64](), f, mngf, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "fastsv aggressive hook")
		}
		// Step 3, shortcutting: f = f min∪ gf.
		if err := grb.EWiseAddV(f, grb.NoVMask, nil, grb.MinOp[int64](), f, gf, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "fastsv shortcut")
		}
		// Step 4, grandparents: x = values of f; next = f(x).
		f.Iterate(parents)
		if err := grb.ExtractSubvector(next, grb.NoVMask, nil, f, x, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "fastsv grandparent")
		}
		// Step 5, termination: any grandparent changed?
		if err := grb.EWiseMultV(diff, grb.NoVMask, nil, grb.NEOp[int64, int64](), next, gf, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "fastsv diff")
		}
		gf, next = next, gf
		changed := grb.ReduceVectorToScalar(grb.PlusMonoid[int64](), diff)
		prb.Iter(IterStat{Iter: round, Work: changed})
		if changed == 0 {
			break
		}
	}
	// FastSV always terminates at the fixed point — it converged by
	// construction, recorded so reports distinguish it from budgeted loops.
	prb.SetConverged(true)
	return f, nil
}
