package lagraph

import (
	"cmp"
	"context"

	"lagraph/internal/grb"
)

// Betweenness centrality (paper §IV-B, Algorithm 3): Brandes' algorithm
// batched over ns source vertices, each level one fused grb step, as GAP's
// bc.cc runs it. The forward (BFS) phase counts shortest paths with
// plus.first over an ns×n frontier, one entry list per source, and
// grb.FusedFrontierStep, the step BFS runs with the any.secondi rule, adds
// each level into the path counts P and stamps its depth into D in the same
// pass. Each level's frontier is kept, and the backward phase walks them
// deepest first, as GAP walks its order array: grb.FusedPlusFirstBackStep
// pulls each vertex's dependency from its successors one level deeper,
// which D names, so no level is a mask and there is no W. Algorithm 3 as
// written, with its EWiseAdd, masked MxMs and EWiseMults, is the reference
// in bc_reference_test.go.

// bcPullThreshold: a forward step pulls (walks Aᵀ's rows for the unvisited
// pairs) when the frontier is denser than 1/bcPullThreshold, else pushes.
const bcPullThreshold = 10

// BetweennessCentrality is the Basic-mode entry point: it caches AT if
// needed (reported by a WarnCacheNotComputed warning) and runs the batched
// algorithm (a typical batch is 4 sources, paper §IV-B).
func BetweennessCentrality[T grb.Value](ctx context.Context, g *Graph[T], sources []int) (*grb.Vector[float64], error) {
	if err := validateGraph(g, "BetweennessCentrality"); err != nil {
		return nil, err
	}
	computed, err := ensureCached(ctx, g, PropAT)
	if err != nil {
		return nil, err
	}
	centrality, err := BetweennessCentralityAdvanced(ctx, g, sources)
	if err != nil {
		return nil, err
	}
	return centrality, cacheWarning("BetweennessCentrality", computed)
}

// BetweennessCentralityAdvanced is Algorithm 3 (Advanced mode): G.AT must
// be cached. ctx is polled once per BFS level in the forward phase and
// once per level in the backtrack phase, returning ctx.Err() once it is
// done.
func BetweennessCentralityAdvanced[T grb.Value](ctx context.Context, g *Graph[T], sources []int) (*grb.Vector[float64], error) {
	if err := validateGraph(g, "BetweennessCentralityAdvanced"); err != nil {
		return nil, err
	}
	at := g.CachedAT()
	if at == nil {
		return nil, errf(StatusPropertyMissing, "BetweennessCentralityAdvanced: G.AT not cached")
	}
	n := g.NumNodes()
	ns := len(sources)
	if ns == 0 {
		return nil, errf(StatusInvalidValue, "BetweennessCentralityAdvanced: empty source batch")
	}
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, errf(StatusInvalidValue, "BetweennessCentralityAdvanced: source %d outside [0,%d)", s, n)
		}
	}

	prb := ProbeFrom(ctx)
	// P(k, sources[k]) = 1 — the number of shortest paths found so far —
	// at depth D(k, sources[k]) = 0; the first frontier is the batch.
	F, P, D := grb.MustMatrix[float64](ns, n), grb.MustMatrix[float64](ns, n), grb.MustMatrix[int32](ns, n)
	for k, s := range sources {
		Must(cmp.Or(F.SetElement(1, k, s), P.SetElement(1, k, s), D.SetElement(0, k, s)))
	}

	// BFS phase (lines 5-12): F⟨¬s(P)⟩ = F plus.first A, P += F, one step
	// a level. levels[d-1] is the level-d frontier.
	var levels []*grb.Matrix[float64]
	for nf, depth := ns, 0; depth < n; depth++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pull := nf*bcPullThreshold > ns*n
		next := grb.MustMatrix[float64](ns, n)
		var err error
		if nf, err = grb.FusedFrontierStep(next, F, P, D, g.A, at, pull); err != nil {
			return nil, wrap(StatusInvalidValue, err, "BC step")
		}
		if prb.Enabled() {
			dir := "push"
			if pull {
				dir = "pull"
			}
			prb.Iter(IterStat{Iter: depth + 1, Frontier: nf, Direction: dir})
		}
		if nf == 0 {
			break
		}
		levels = append(levels, next)
		F = next
	}
	prb.Add("backtrack_levels", int64(max(len(levels)-1, 0)))

	// Backtrack phase (lines 13-19): B = 1, then for each level d, deepest
	// first, B(k, v) += P(k, v) · Σ B(k, w) / P(k, w) over v's successors w
	// at depth d+1.
	B := grb.MustMatrix[float64](ns, n)
	if err := grb.AssignMatrixScalar(B, grb.NoMask, nil, 1.0, grb.All, grb.All, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "BC init B")
	}
	for d := len(levels) - 1; d >= 1; d-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := grb.FusedPlusFirstBackStep(B, levels[d-1], P, D, g.A); err != nil {
			return nil, wrap(StatusInvalidValue, err, "BC dependency")
		}
	}

	// centrality(:) = -ns; centrality += onesᵀ plus.second B (lines 20-21):
	// B's column sums, read where they lie, shifted so each source's own
	// unit contribution cancels.
	centrality := grb.DenseVector(n, float64(-ns))
	if err := grb.ReduceMatrixToVector(centrality, grb.NoVMask, grb.PlusOp[float64]().F, grb.PlusMonoid[float64](), B, grb.DescT0); err != nil {
		return nil, wrap(StatusInvalidValue, err, "BC column sums")
	}
	return centrality, nil
}
