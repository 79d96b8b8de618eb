package lagraph

import (
	"context"

	"lagraph/internal/grb"
)

// Single-source shortest paths (paper §IV-D, Algorithm 5): delta-stepping
// on the min.plus semiring, after Sridhar et al. Vertices are settled
// bucket by bucket, Δ wide. Algorithm 5 relaxes light edges (weight ≤ Δ)
// to a fixed point inside the bucket and heavy ones once it closes; here,
// as in GAP's sssp.cc, every edge is light. A heavy edge lands in a later
// bucket either way, so distances, buckets and their frontiers are
// Algorithm 5's.
//
// Algorithm 5 selects each bucket out of the full distance vector t and
// merges each relaxation into t with whole-vector calls, so every bucket
// costs O(n) — the Road pathology of §VI-B. Here the run holds bucket bins
// (grb.Bins) and each relaxation is grb.FusedMinPlusPushStep, which reads
// A and lowers t in place and files every vertex it lowers into bin
// ⌊t/Δ⌋, so a bucket costs what its members and their edges cost.
// Algorithm 5 as written stays in sssp_reference_test.go, the reference
// the kernel's distances and per-bucket probe events are checked against.

// SingleSourceShortestPath is the Basic-mode entry point. A non-positive
// delta selects a heuristic bucket width from A's mean edge weight.
// Edge weights must be non-negative. Delta-stepping reads only G.A, so
// there is no property to cache and the Basic warning never arises.
func SingleSourceShortestPath[T grb.Number](ctx context.Context, g *Graph[T], src int, delta T) (*grb.Vector[T], error) {
	if err := validateSource(g, src, "SingleSourceShortestPath"); err != nil {
		return nil, err
	}
	if delta <= 0 {
		delta = defaultDelta[T](g)
	}
	return SSSPDeltaStepping(ctx, g, src, delta)
}

// defaultDelta picks Δ the way the GAP benchmark's runner does for its
// synthetic graphs: a small constant works for uniform weights; scale with
// the average weight when it is large. It averages A's first 1024 stored
// weights, read in place, and never returns less than 1.
func defaultDelta[T grb.Number](g *Graph[T]) T {
	_, _, vals := g.A.ExportCSR()
	vals = vals[:min(len(vals), 1024)]
	var sum float64
	for _, v := range vals {
		sum += float64(v)
	}
	if len(vals) > 0 {
		if d := T(sum / float64(len(vals)) / 2); d >= 1 {
			return d
		}
	}
	return 1
}

// SSSPDeltaStepping is Algorithm 5 (Advanced mode) with every edge light,
// over bucket bins: it reads only G.A and requires delta > 0. Edge weights
// must be non-negative: a weight that lowers a vertex into a bucket below
// the open one is an InvalidValue error naming the negative edge weight,
// not a wrong distance. Distances to unreachable vertices are +inf for
// floating-point weight types (callers on integer graphs should use
// Reachable to interpret the result: unreached entries hold MaxOf[T]). ctx
// is polled once per bucket and once per relaxation round, returning
// ctx.Err() once it is done. A delta so small that a distance's bucket
// number passes the int range is an InvalidValue error.
func SSSPDeltaStepping[T grb.Number](ctx context.Context, g *Graph[T], src int, delta T) (*grb.Vector[T], error) {
	if err := validateSource(g, src, "SSSPDeltaStepping"); err != nil {
		return nil, err
	}
	prb := ProbeFrom(ctx)
	n := g.NumNodes()

	// t(:) = ∞ ; t(s) = 0 (lines 4-5): the source alone in bin 0.
	t := grb.DenseVector(n, grb.MaxOf[T]())
	Must(t.SetElement(0, src))
	bins, err := grb.NewBins(t, delta)
	if err != nil {
		return nil, wrap(StatusInvalidValue, err, "SSSPDeltaStepping")
	}
	f := grb.MustVector[T](n)

	// Each epoch is the lowest bin holding a live vertex (line 6's test and
	// line 8's tB).
	for i, ok := bins.Next(); ok; i, ok = bins.Next() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bucketFront, bucketWork := bins.Take(f), int64(0)
		for front := bucketFront; front > 0; front = bins.Take(f) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// tReq = Aᵀ min.plus f, t = t min∪ tReq (lines 10-15); the next
			// inner frontier is what it lowered into this bucket (lines
			// 13-14).
			reached, err := grb.FusedMinPlusPushStep(bins, f, g.A)
			if err != nil {
				return nil, wrap(StatusInvalidValue, err, "SSSPDeltaStepping")
			}
			bucketWork += int64(reached)
		}
		if prb.Enabled() {
			prb.Iter(IterStat{Iter: i, Frontier: bucketFront, Work: bucketWork})
			prb.Add("relaxations", bucketWork)
		}
	}
	return t, nil
}

// Reachable reports whether a distance value means the vertex was reached.
func Reachable[T grb.Number](dist T) bool { return dist < grb.MaxOf[T]() }
