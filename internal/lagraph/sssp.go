package lagraph

import (
	"context"

	"lagraph/internal/grb"
)

// Single-source shortest paths (paper §IV-D, Algorithm 5): delta-stepping
// on the min.plus semiring, after Sridhar et al. Edges are partitioned
// into light (weight ≤ Δ) and heavy (> Δ); vertices are settled bucket by
// bucket, with light edges relaxed to a fixed point inside the bucket and
// heavy edges relaxed once when the bucket closes.

// SingleSourceShortestPath is the Basic-mode entry point. A non-positive
// delta selects a heuristic bucket width from the graph's mean degree.
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
// the average weight when it is large.
func defaultDelta[T grb.Number](g *Graph[T]) T {
	var sum float64
	cnt := 0
	_, _, vals := g.A.ExtractTuples()
	for _, v := range vals {
		sum += float64(v)
		cnt++
		if cnt >= 1024 {
			break
		}
	}
	if cnt == 0 {
		return 1
	}
	avg := sum / float64(cnt)
	d := T(avg / 2)
	if d < 1 {
		d = 1
	}
	return d
}

// SSSPDeltaStepping is Algorithm 5 (Advanced mode): it reads only G.A and
// requires delta > 0. Distances to unreachable vertices are +inf for
// floating-point weight types (callers on integer graphs should use
// Reachable to interpret the result: unreached entries hold MaxOf[T]).
// ctx is polled at every bucket epoch and every inner light-edge
// relaxation round, returning ctx.Err() once it is done.
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

	// AL = A⟨0 < A ≤ Δ⟩ ; AH = A⟨Δ < A⟩ (Algorithm 5 lines 2-3).
	AL := grb.MustMatrix[T](n, n)
	if err := grb.Select(AL, grb.NoMask, nil, grb.ValueLE[T](), g.A, delta, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "sssp AL")
	}
	if err := grb.Select(AL, grb.NoMask, nil, grb.ValueGT[T](), AL, zero, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "sssp AL positive")
	}
	AH := grb.MustMatrix[T](n, n)
	if err := grb.Select(AH, grb.NoMask, nil, grb.ValueGT[T](), g.A, delta, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "sssp AH")
	}

	// t(:) = ∞ ; t(s) = 0 (lines 4-5).
	t := grb.DenseVector(n, inf)
	Must(t.SetElement(zero, src))

	minPlus := grb.MinPlus[T]()
	minOp := grb.MinOp[T]()
	less := grb.BinaryOp[T, T, bool]{Name: "lt", F: func(a, b T) bool { return a < b }}

	// bucketOf extracts v's entries with lo ≤ v < hi in one pass, through a
	// user-defined select operator (the C API's GrB_IndexUnaryOp_new).
	bucketOf := func(v *grb.Vector[T], lo, hi T) (*grb.Vector[T], error) {
		inRange := grb.IndexUnaryOp[T]{Name: "range", F: func(x T, _, _ int, upper T) bool { return lo <= x && x < upper }}
		b := grb.MustVector[T](n)
		err := grb.SelectV(b, grb.NoVMask, nil, inRange, v, hi, nil)
		return b, wrap(StatusInvalidValue, err, "sssp bucket")
	}

	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lo := T(i) * delta
		hi := lo + delta
		// tB = t⟨iΔ ≤ t < (i+1)Δ⟩ (line 8).
		tB, err := bucketOf(t, lo, hi)
		if err != nil {
			return nil, err
		}
		// e accumulates every vertex that was ever in bucket i (line 12's
		// role): those get one heavy relaxation when the bucket closes.
		e := grb.MustVector[bool](n)
		var bucketFront int
		var bucketWork int64
		if prb.Enabled() {
			bucketFront = tB.NVals()
		}
		for tB.NVals() != 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// e⟨s(tB)⟩ = true.
			if err := grb.AssignVectorScalar(e, grb.StructVMaskOf(tB), nil, true, grb.All, nil); err != nil {
				return nil, wrap(StatusInvalidValue, err, "sssp settled set")
			}
			// tReq = ALᵀ min.plus tB, expressed as the push tBᵀ·AL
			// (line 10-11).
			tReq := grb.MustVector[T](n)
			if err := grb.VxM(tReq, grb.NoVMask, nil, minPlus, tB, AL, nil); err != nil {
				return nil, wrap(StatusInvalidValue, err, "sssp light relax")
			}
			if prb.Enabled() {
				bucketWork += int64(tReq.NVals())
			}
			// Improvements only: tless = tReq < t (line 14's guard).
			tless := grb.MustVector[bool](n)
			if err := grb.EWiseMultV(tless, grb.NoVMask, nil, less, tReq, t, nil); err != nil {
				return nil, wrap(StatusInvalidValue, err, "sssp improvement test")
			}
			// t = t min∪ tReq (line 15).
			if err := grb.EWiseAddV(t, grb.NoVMask, nil, minOp, t, tReq, nil); err != nil {
				return nil, wrap(StatusInvalidValue, err, "sssp merge")
			}
			// Next inner frontier: improved vertices still in this bucket
			// (lines 13-14).
			improved := grb.MustVector[T](n)
			if err := grb.ApplyV(improved, grb.VMaskOf(tless), nil, grb.Identity[T](), tReq, nil); err != nil {
				return nil, wrap(StatusInvalidValue, err, "sssp improved gather")
			}
			tB, err = bucketOf(improved, lo, hi)
			if err != nil {
				return nil, err
			}
		}
		// Heavy relaxation for the settled bucket (lines 16-17):
		// tReq = AHᵀ min.plus (t ×∩ e); t = t min∪ tReq.
		if e.NVals() > 0 {
			te := grb.MustVector[T](n)
			if err := grb.ApplyV(te, grb.StructVMaskOf(e), nil, grb.Identity[T](), t, nil); err != nil {
				return nil, wrap(StatusInvalidValue, err, "sssp settled gather")
			}
			tReq := grb.MustVector[T](n)
			if err := grb.VxM(tReq, grb.NoVMask, nil, minPlus, te, AH, nil); err != nil {
				return nil, wrap(StatusInvalidValue, err, "sssp heavy relax")
			}
			if prb.Enabled() {
				bucketWork += int64(tReq.NVals())
			}
			if err := grb.EWiseAddV(t, grb.NoVMask, nil, minOp, t, tReq, nil); err != nil {
				return nil, wrap(StatusInvalidValue, err, "sssp heavy merge")
			}
		}
		if prb.Enabled() {
			prb.Iter(IterStat{Iter: i, Frontier: bucketFront, Work: bucketWork})
			prb.Add("relaxations", bucketWork)
		}
		// Terminate when no finite tentative distance ≥ (i+1)Δ remains
		// (line 6's condition); otherwise skip straight to the next
		// non-empty bucket.
		remain, err := bucketOf(t, hi, inf)
		if err != nil {
			return nil, err
		}
		if remain.NVals() == 0 {
			break
		}
		nextMin := grb.ReduceVectorToScalar(grb.MinMonoid[T](), remain)
		if next := int(nextMin / delta); next > i {
			i = next - 1 // the loop increment brings it to the bucket
		}
	}
	return t, nil
}

// Reachable reports whether a distance value means the vertex was reached.
func Reachable[T grb.Number](dist T) bool { return dist < grb.MaxOf[T]() }
