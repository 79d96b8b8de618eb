package lagraph

import (
	"cmp"
	"context"

	"lagraph/internal/grb"
)

// Breadth-first search (paper §IV-A, Algorithms 1 and 2).
//
// The parent BFS rests on the any.secondi semiring: one step is
//
//	qᵀ⟨¬s(pᵀ), r⟩ = qᵀ any.secondi A      (push)
//	q⟨¬s(p), r⟩   = Aᵀ any.secondi q      (pull)
//
// where q is the frontier, p the parent vector and the complemented
// structural mask selects the unvisited vertices. secondi yields the index
// k of the multiplied pair — the parent id — and the any monoid keeps one
// of them, the benign race of GAP's bfs.cc recast as a monoid. Each level
// is one grb.FusedBFSStep, BC's forward step at k = 1 under any.secondi:
// it writes p and the depth stamp (the level output) in the same pass, and
// its pull stops at an unvisited vertex's first frontier in-neighbour,
// GAP's bottom-up step.

// bfsAlphaRatio and bfsBetaRatio are the GAP direction-optimisation
// thresholds: switch to pull when the frontier's out-edges exceed the
// unexplored edges / alpha; back to push when the frontier shrinks below
// n / beta.
const (
	bfsAlphaRatio = 15
	bfsBetaRatio  = 18
)

// BreadthFirstSearch is the Basic-mode BFS: it computes and caches any
// properties it needs (returning a WarnCacheNotComputed warning so callers
// can notice), then runs the direction-optimizing algorithm. Either output
// may be requested; pass false to skip one. The traversal polls ctx once
// per level and returns ctx.Err() when it is done.
func BreadthFirstSearch[T grb.Value](ctx context.Context, g *Graph[T], src int, wantParent, wantLevel bool) (*grb.Vector[int64], *grb.Vector[int32], error) {
	if err := validateSource(g, src, "BreadthFirstSearch"); err != nil {
		return nil, nil, err
	}
	computed, err := ensureCached(ctx, g, PropAT, PropRowDegree)
	if err != nil {
		return nil, nil, err
	}
	p, l, err := BreadthFirstSearchAdvanced(ctx, g, src, wantParent, wantLevel)
	if err != nil {
		return nil, nil, err
	}
	return p, l, cacheWarning("BreadthFirstSearch", computed)
}

// BreadthFirstSearchAdvanced is Algorithm 2 (Advanced mode): the
// direction-optimizing BFS, producing the parent vector (for every reached
// vertex the id of its BFS-tree parent, the source mapping to itself)
// and/or the level vector (hop distance, the source at level 0). It
// requires the cached transpose AT (pull direction) and RowDegree (the
// push/pull heuristic); missing properties are an error, never computed
// behind the caller's back.
func BreadthFirstSearchAdvanced[T grb.Value](ctx context.Context, g *Graph[T], src int, wantParent, wantLevel bool) (*grb.Vector[int64], *grb.Vector[int32], error) {
	if err := validateSource(g, src, "BreadthFirstSearchAdvanced"); err != nil {
		return nil, nil, err
	}
	at, rowDegree := g.CachedAT(), g.CachedRowDegree()
	if at == nil {
		return nil, nil, errf(StatusPropertyMissing, "BreadthFirstSearchAdvanced: G.AT not cached (advanced mode computes nothing; call PropertyAT)")
	}
	if rowDegree == nil {
		return nil, nil, errf(StatusPropertyMissing, "BreadthFirstSearchAdvanced: G.RowDegree not cached (call PropertyRowDegree)")
	}
	return bfsDirOpt(ctx, g, at, rowDegree, src, wantParent, wantLevel)
}

// BFSParentPushOnly is Algorithm 1 (Advanced mode): the push-only parents
// BFS, a loop over BFSStep that polls ctx once per level. It needs no
// cached properties. The returned vector holds, for every reached vertex,
// the id of its BFS-tree parent (the source maps to itself).
func BFSParentPushOnly[T grb.Value](ctx context.Context, g *Graph[T], src int) (*grb.Vector[int64], error) {
	if err := validateSource(g, src, "BFSParentPushOnly"); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	p, q := grb.MustVector[int64](n), grb.MustVector[int64](n)
	Must(cmp.Or(p.SetElement(int64(src), src), q.SetElement(int64(src), src)))
	for level := 1; level < n && q.NVals() > 0; level++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := BFSStep(g, p, q); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// bfsDirOpt runs the direction-optimizing BFS, producing the parent and/or
// level vectors. at and rowDegree are the caller's snapshots of the cached
// properties, taken through the Cached* accessors so concurrent property
// materialization on g cannot race with the traversal. ctx is polled once
// per BFS level.
func bfsDirOpt[T grb.Value](ctx context.Context, g *Graph[T], at *grb.Matrix[T], rowDegree *grb.Vector[int64], src int, wantParent, wantLevel bool) (*grb.Vector[int64], *grb.Vector[int32], error) {
	prb := ProbeFrom(ctx)
	n := g.NumNodes()
	// p holds the parents and d the depths, the level output; a pull reads
	// the frontier as d's cells at the last level.
	p, d, q := grb.MustVector[int64](n), grb.MustVector[int32](n), grb.MustVector[int64](n)
	Must(cmp.Or(p.SetElement(int64(src), src), d.SetElement(0, src), q.SetElement(int64(src), src)))

	edgesUnexplored, doPush, nq := g.A.NVals(), true, 1
	for level := 1; level < n; level++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		// GAP heuristic: compare the frontier's outgoing edges with the
		// edges left to explore.
		if doPush {
			scout := frontierEdges(rowDegree, q)
			edgesUnexplored -= scout
			if scout > edgesUnexplored/bfsAlphaRatio && nq > 1 {
				doPush = false
			}
		} else if nq < n/bfsBetaRatio {
			doPush = true
		}
		// q⟨¬s(p), r⟩ = q any.secondi A, p⟨s(q)⟩ = q, d⟨s(q)⟩ = level
		var err error
		if nq, err = grb.FusedBFSStep(p, q, d, g.A, at, !doPush); err != nil {
			return nil, nil, wrap(StatusInvalidValue, err, "BFS step")
		}
		if prb.Enabled() {
			dir := "pull"
			if doPush {
				dir = "push"
			}
			prb.Iter(IterStat{Iter: level, Frontier: nq, Direction: dir})
		}
		if nq == 0 {
			break
		}
	}
	if !wantParent {
		p = nil
	}
	if !wantLevel {
		d = nil
	}
	return p, d, nil
}

// BFSStep advances a BFS by one level in place — the batch-mode,
// input/output-argument style of the paper's calling conventions (§II-C:
// "This supports features such as batch mode in which a frontier is
// updated and returned to the caller"). p and q are both read and
// modified; the caller owns the loop and may inspect or edit the frontier
// between steps. Advanced mode: nothing is cached on the graph.
func BFSStep[T grb.Value](g *Graph[T], p, q *grb.Vector[int64]) error {
	if err := validateGraph(g, "BFSStep"); err != nil {
		return err
	}
	n := g.NumNodes()
	if p.Size() != n || q.Size() != n {
		return errf(StatusInvalidValue, "BFSStep: vector length mismatch")
	}
	// qᵀ⟨¬s(pᵀ), r⟩ = qᵀ any.secondi A and p⟨s(q)⟩ = q in one pass
	if _, err := grb.FusedBFSStep(p, q, nil, g.A, nil, false); err != nil {
		return wrap(StatusInvalidValue, err, "BFSStep push")
	}
	return nil
}

// frontierEdges sums the out-degrees of the frontier vertices (GAP's
// scout_count).
func frontierEdges(rowDegree *grb.Vector[int64], q *grb.Vector[int64]) int {
	total := 0
	q.Iterate(func(i int, _ int64) {
		if d, err := rowDegree.ExtractElement(i); err == nil {
			total += int(d)
		}
	})
	return total
}

// validateSource checks the graph and source vertex.
func validateSource[T grb.Value](g *Graph[T], src int, op string) error {
	if err := validateGraph(g, op); err != nil {
		return err
	}
	if g.A.NRows() != g.A.NCols() {
		return errf(StatusInvalidGraph, "%s: adjacency matrix not square", op)
	}
	if src < 0 || src >= g.NumNodes() {
		return errf(StatusInvalidValue, "%s: source %d outside [0,%d)", op, src, g.NumNodes())
	}
	return nil
}
