package lagraph

import (
	"context"
	"math"

	"lagraph/internal/grb"
)

// Single-source shortest paths (paper §IV-D, Algorithm 5): delta-stepping
// on the min.plus semiring, after Sridhar et al. Edges are partitioned
// into light (weight ≤ Δ) and heavy (> Δ); vertices are settled bucket by
// bucket, with light edges relaxed to a fixed point inside the bucket and
// heavy edges relaxed once when the bucket closes.
//
// Algorithm 5 finds each bucket by selecting it out of the full distance
// vector t, and merges each relaxation into t with whole-vector calls, so
// every bucket costs O(n) — the Road pathology of §VI-B. Here a sparse
// pending vector holds the unsettled vertices with a finite distance, at
// their values in t; buckets are selected out of it, and each relaxation
// is grb.FusedMinPlusPushStep, which lowers t in place and returns only
// what it lowered. A bucket then costs what its members and their edges
// cost. Algorithm 5 as written stays in sssp_reference_test.go, the
// reference the kernel's distances and per-bucket probe events are
// checked against.

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

// SSSPDeltaStepping is Algorithm 5 (Advanced mode) over a pending set: it
// reads only G.A and requires delta > 0. Edge weights must be
// non-negative; a zero-weight edge is light. Distances to unreachable
// vertices are +inf for floating-point weight types (callers on integer
// graphs should use Reachable to interpret the result: unreached entries
// hold MaxOf[T]). ctx is polled at every bucket epoch and every inner
// light-edge relaxation round, returning ctx.Err() once it is done. A
// delta so small that a distance's bucket index passes the int range is
// an InvalidValue error.
func SSSPDeltaStepping[T grb.Number](ctx context.Context, g *Graph[T], src int, delta T) (*grb.Vector[T], error) {
	if err := validateSource(g, src, "SSSPDeltaStepping"); err != nil {
		return nil, err
	}
	if delta <= 0 {
		return nil, errf(StatusInvalidValue, "SSSPDeltaStepping: delta must be positive")
	}
	prb := ProbeFrom(ctx)
	n := g.NumNodes()
	inf := grb.MaxOf[T]()
	var zero T

	// AL = A⟨A ≤ Δ⟩ ; AH = A⟨Δ < A⟩ (Algorithm 5 lines 2-3).
	AL := grb.MustMatrix[T](n, n)
	if err := grb.Select(AL, grb.NoMask, nil, grb.ValueLE[T](), g.A, delta, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "sssp AL")
	}
	AH := grb.MustMatrix[T](n, n)
	if err := grb.Select(AH, grb.NoMask, nil, grb.ValueGT[T](), g.A, delta, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "sssp AH")
	}

	// t(:) = ∞ ; t(s) = 0 (lines 4-5); the source is the one pending vertex.
	t := grb.DenseVector(n, inf)
	Must(t.SetElement(zero, src))
	pending := grb.MustVector[T](n)
	Must(pending.SetElement(zero, src))

	minOp := grb.MinOp[T]()
	// inBucket keeps lo ≤ x < hi, hi the thunk: a user-defined select
	// operator (the C API's GrB_IndexUnaryOp_new) over the bucket's lo.
	var lo T
	inBucket := grb.IndexUnaryOp[T]{Name: "range", F: func(x T, _, _ int, hi T) bool { return lo <= x && x < hi }}
	bucketOf := func(v *grb.Vector[T], hi T) (*grb.Vector[T], error) {
		b := grb.MustVector[T](n)
		err := grb.SelectV(b, grb.NoVMask, nil, inBucket, v, hi, nil)
		return b, wrap(StatusInvalidValue, err, "sssp bucket")
	}
	// relax is tReq = ALᵀ min.plus f (or AH), t = t min∪ tReq, fused: f
	// becomes what it lowered, and those join pending at their new values.
	relax := func(f *grb.Vector[T], A *grb.Matrix[T]) (int, error) {
		reached, err := grb.FusedMinPlusPushStep(t, f, A)
		if err != nil {
			return 0, wrap(StatusInvalidValue, err, "sssp relax")
		}
		return reached, wrap(StatusInvalidValue, grb.EWiseAddV(pending, grb.NoVMask, nil, minOp, pending, f, nil), "sssp pending")
	}

	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lo = T(i) * delta
		hi := lo + delta
		// tB = pending⟨iΔ ≤ x < (i+1)Δ⟩ (line 8).
		tB, err := bucketOf(pending, hi)
		if err != nil {
			return nil, err
		}
		var bucketFront int
		var bucketWork int64
		if prb.Enabled() {
			bucketFront = tB.NVals()
		}
		for tB.NVals() != 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Light relaxation (lines 10-15); the next inner frontier is
			// what it lowered that is still in this bucket (lines 13-14).
			reached, err := relax(tB, AL)
			if err != nil {
				return nil, err
			}
			bucketWork += int64(reached)
			if err := grb.SelectV(tB, grb.NoVMask, nil, inBucket, tB, hi, nil); err != nil {
				return nil, wrap(StatusInvalidValue, err, "sssp bucket")
			}
		}
		// At the fixed point, pending's entries in the bucket are exactly
		// the vertices it settled, at their final distances: one heavy
		// relaxation for them (lines 16-17).
		te, err := bucketOf(pending, hi)
		if err != nil {
			return nil, err
		}
		if te.NVals() > 0 {
			reached, err := relax(te, AH)
			if err != nil {
				return nil, err
			}
			bucketWork += int64(reached)
		}
		if prb.Enabled() {
			prb.Iter(IterStat{Iter: i, Frontier: bucketFront, Work: bucketWork})
			prb.Add("relaxations", bucketWork)
		}
		// Retire the bucket. Terminate when nothing is pending (line 6's
		// condition); otherwise skip straight to the next non-empty bucket.
		if err := grb.SelectV(pending, grb.NoVMask, nil, grb.ValueGE[T](), pending, hi, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "sssp retire")
		}
		if pending.NVals() == 0 {
			break
		}
		// The next bucket's index must fit an int: past it, the skip would
		// never fire and the loop would step through empty buckets.
		nextMin := grb.ReduceVectorToScalar(grb.MinMonoid[T](), pending)
		if float64(nextMin/delta) >= math.MaxInt {
			return nil, errf(StatusInvalidValue, "SSSPDeltaStepping: delta %v is too small: distance %v is bucket %v, past the int range", delta, nextMin, nextMin/delta)
		}
		if next := int(nextMin / delta); next > i {
			i = next - 1 // the loop increment brings it to the bucket
		}
	}
	return t, nil
}

// Reachable reports whether a distance value means the vertex was reached.
func Reachable[T grb.Number](dist T) bool { return dist < grb.MaxOf[T]() }
