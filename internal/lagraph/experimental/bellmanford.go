package experimental

import (
	"context"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

// BellmanFord computes single-source shortest paths by repeated min.plus
// relaxation — the LAGraph experimental folder's LAGraph_BF. Unlike the
// stable tier's delta-stepping (paper Algorithm 5) it accepts negative
// edge weights, and it reports whether a negative cycle is reachable from
// the source (in which case the distances are not meaningful).
//
// One relaxation round is a single vxm on the min.plus semiring:
//
//	dᵀ = dᵀ min.plus A   followed by   d = d min∪ d'
//
// After n-1 rounds every shortest path is settled; a change in round n
// proves a reachable negative cycle.
func BellmanFord[T grb.Number](ctx context.Context, g *lagraph.Graph[T], src int) (*grb.Vector[T], bool, error) {
	if g == nil || g.A == nil {
		return nil, false, lagraph.ErrInvalid("BellmanFord: nil graph")
	}
	n := g.A.NRows()
	if g.A.NCols() != n {
		return nil, false, lagraph.ErrInvalid("BellmanFord: adjacency matrix not square")
	}
	if src < 0 || src >= n {
		return nil, false, lagraph.ErrInvalid("BellmanFord: source out of range")
	}
	d := grb.MustVector[T](n)
	var zero T
	lagraph.Must(d.SetElement(zero, src))
	minPlus := grb.MinPlus[T]()
	minOp := grb.MinOp[T]()
	relax := func() (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		// d' = dᵀ min.plus A.
		dNew := grb.MustVector[T](n)
		if err := grb.VxM(dNew, grb.NoVMask, nil, minPlus, d, g.A, nil); err != nil {
			return false, err
		}
		// merged = d min∪ d'.
		merged := d.Dup()
		if err := grb.EWiseAddV(merged, grb.NoVMask, nil, minOp, merged, dNew, nil); err != nil {
			return false, err
		}
		same, err := lagraph.VectorIsEqual(d, merged)
		if err != nil {
			return false, err
		}
		d = merged
		return !same, nil
	}
	for round := 1; round < n; round++ {
		changed, err := relax()
		if err != nil {
			return nil, false, err
		}
		if !changed {
			return d, false, nil
		}
	}
	// Round n: any further improvement proves a negative cycle.
	changed, err := relax()
	if err != nil {
		return nil, false, err
	}
	if changed {
		return d, true, nil
	}
	return d, false, nil
}
