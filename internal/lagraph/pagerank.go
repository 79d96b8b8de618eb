package lagraph

import (
	"context"
	"math"

	"lagraph/internal/grb"
)

// PageRank (paper §IV-C, Algorithm 4). Two variants are provided, exactly
// as the paper describes: PageRankGAP reproduces the GAP benchmark's
// pr.cc, which does not handle dangling vertices (sinks leak rank), and
// PageRankGX is the LDBC Graphalytics variant that redistributes sink rank
// every iteration.
//
// Both use the plus.second semiring, so edge weights in A are ignored, and
// every vector of a sweep is full: d is deg/damping where a degree is stored
// and +Inf at the sinks, which no row of Aᵀ names, so w = t ÷ d, the pull and
// t = |t − r| (one call) probe no entry. A GAP sweep is five grb calls.

// PageRankGAP is Algorithm 4 (Advanced mode). It requires the cached AT
// and RowDegree properties. It returns the rank vector and the number of
// iterations performed; the power iteration polls ctx once per sweep and
// returns ctx.Err() when it is done.
func PageRankGAP[T grb.Value](ctx context.Context, g *Graph[T], damping, tol float64, itermax int) (*grb.Vector[float64], int, error) {
	return pagerank(ctx, g, "PageRankGAP", damping, tol, itermax, false)
}

// PageRankGX is the Graphalytics variant (Advanced mode, same property
// requirements): dangling vertices' rank is gathered each iteration and
// redistributed uniformly, so the ranks remain a probability distribution.
func PageRankGX[T grb.Value](ctx context.Context, g *Graph[T], damping, tol float64, itermax int) (*grb.Vector[float64], int, error) {
	return pagerank(ctx, g, "PageRankGX", damping, tol, itermax, true)
}

// PageRank is the Basic-mode entry point: properties are computed and
// cached as needed (reported by a WarnCacheNotComputed warning) and the
// dangling-safe variant is selected, since basic users "simply want the
// correct answer" (paper §II-B).
func PageRank[T grb.Value](ctx context.Context, g *Graph[T], damping, tol float64, itermax int) (*grb.Vector[float64], int, error) {
	if err := validateGraph(g, "PageRank"); err != nil {
		return nil, 0, err
	}
	computed, err := ensureCached(ctx, g, PropAT, PropRowDegree)
	if err != nil {
		return nil, 0, err
	}
	r, iters, err := pagerank(ctx, g, "PageRank", damping, tol, itermax, true)
	if err != nil {
		return nil, iters, err
	}
	return r, iters, cacheWarning("PageRank", computed)
}

// pagerank runs Algorithm 4 for the entry point named op against snapshots
// of the cached transpose and out-degree vector (taken via the Cached*
// accessors, so concurrent property materialization cannot race with the
// iteration); either one missing is StatusPropertyMissing. ctx is polled
// once per power-iteration sweep.
func pagerank[T grb.Value](ctx context.Context, g *Graph[T], op string, damping, tol float64, itermax int, handleDangling bool) (*grb.Vector[float64], int, error) {
	if err := validateGraph(g, op); err != nil {
		return nil, 0, err
	}
	at, rowDegree := g.CachedAT(), g.CachedRowDegree()
	if at == nil || rowDegree == nil {
		return nil, 0, errf(StatusPropertyMissing, "%s: G.AT and G.RowDegree must be cached", op)
	}
	if !(damping > 0 && damping < 1) { // NaN fails too
		return nil, 0, errf(StatusInvalidValue, "pagerank: damping %v outside (0,1)", damping)
	}
	prb := ProbeFrom(ctx)
	n := g.NumNodes()
	if n == 0 {
		return grb.MustVector[float64](0), 0, nil
	}
	if itermax < 1 {
		itermax = 100
	}
	teleport := (1 - damping) / float64(n)

	// d = rowdegree / damping (Algorithm 4 line 5) over +Inf, kept at sinks.
	d := grb.DenseVector(n, math.Inf(1))
	toF := grb.UnaryOp[int64, float64]{Name: "scale", F: func(x int64) float64 { return float64(x) / damping }}
	if err := grb.ApplyV(d, grb.NoVMask, grb.Second[float64, float64]().F, toF, rowDegree, nil); err != nil {
		return nil, 0, wrap(StatusInvalidValue, err, "pagerank prescale")
	}

	// Dangling-vertex mask for the Graphalytics variant: vertices with no
	// out-edges.
	var sink *grb.Vector[bool]
	if handleDangling {
		sink = grb.MustVector[bool](n)
		if err := grb.AssignVectorScalar(sink, grb.StructVMaskOf(rowDegree).Not(), nil, true, grb.All, nil); err != nil {
			return nil, 0, wrap(StatusInvalidValue, err, "pagerank sink mask")
		}
	}

	r := grb.DenseVector(n, 1/float64(n))
	t := grb.MustVector[float64](n)
	// w (the scaled contributions) and ts (the rank held at sinks) live
	// across sweeps: each sweep overwrites them where they lie.
	w, ts := grb.MustVector[float64](n), grb.MustVector[float64](n)
	plus := func(a, b float64) float64 { return a + b }
	semiring := grb.PlusSecond[T, float64]()
	absDiff := grb.BinaryOp[float64, float64, float64]{Name: "absdiff", F: func(a, b float64) float64 { return math.Abs(a - b) }}

	iters := 0
	converged := false
	for k := 0; k < itermax; k++ {
		if err := ctx.Err(); err != nil {
			return nil, iters, err
		}
		iters = k + 1
		// swap t and r: t is now the prior rank.
		t, r = r, t
		// w = t ÷ d
		if err := grb.EWiseMultV(w, grb.NoVMask, nil, grb.DivOp[float64](), t, d, nil); err != nil {
			return nil, 0, wrap(StatusInvalidValue, err, "pagerank contributions")
		}
		base := teleport
		if handleDangling {
			// Redistribute rank trapped at sinks: damping * Σ t(sinks) / n.
			if err := grb.ApplyV(ts, grb.VMaskOf(sink), nil, grb.Identity[float64](), t, nil); err != nil {
				return nil, 0, wrap(StatusInvalidValue, err, "pagerank sink gather")
			}
			dsum := grb.ReduceVectorToScalar(grb.PlusMonoid[float64](), ts)
			base += damping * dsum / float64(n)
		}
		// r(:) = teleport (+ sink share), then r += Aᵀ plus.second w.
		if err := grb.AssignVectorScalar(r, grb.NoVMask, nil, base, grb.All, nil); err != nil {
			return nil, 0, wrap(StatusInvalidValue, err, "pagerank teleport")
		}
		if err := grb.MxV(r, grb.NoVMask, plus, semiring, at, w, nil); err != nil {
			return nil, 0, wrap(StatusInvalidValue, err, "pagerank pull")
		}
		// t = |t − r|; converged when the 1-norm of the change is small.
		if err := grb.EWiseAddV(t, grb.NoVMask, nil, absDiff, t, r, nil); err != nil {
			return nil, 0, wrap(StatusInvalidValue, err, "pagerank delta")
		}
		rdiff := grb.ReduceVectorToScalar(grb.PlusMonoid[float64](), t)
		prb.Iter(IterStat{Iter: iters, Residual: rdiff})
		if rdiff < tol {
			converged = true
			break
		}
	}
	prb.SetConverged(converged)
	return r, iters, nil
}
