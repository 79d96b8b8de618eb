package lagraph

import (
	"context"

	"lagraph/internal/grb"
)

// Betweenness centrality (paper §IV-B, Algorithm 3): Brandes' algorithm
// batched over ns source vertices. The forward (BFS) phase counts shortest
// paths with plus.first over an ns×n frontier matrix; the backward phase
// accumulates dependencies. Each level's frontier is kept as it was
// computed, S[d], and the backward phase reads it only as a structural
// mask, so no level copies its pattern. Both phases multiply through one
// step, bcStep, which makes the same push/pull choice as the BFS: the push
// multiplies by X, the pull by XTᵀ with XT = Xᵀ held explicitly, via the
// transpose descriptor. Forward, X is A and XT the cached G.AT; backward,
// the two swap.

// bcPullThreshold: switch the frontier multiply to the dot (pull) kernel
// when the frontier matrix is denser than 1/bcPullThreshold.
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
	// P(k, sources[k]) = 1 — number of shortest paths found so far.
	P := grb.MustMatrix[float64](ns, n)
	for k, s := range sources {
		Must(P.SetElement(1, k, s))
	}
	// First frontier: F⟨¬s(P)⟩ = P plus.first A (line 5).
	F := grb.MustMatrix[float64](ns, n)
	pulled, err := bcStep(F, grb.StructMaskOf(P).Not(), P, g.A, at)
	if err != nil {
		return nil, err
	}

	// BFS phase (lines 6-12). S[d] is the level-d frontier itself: every
	// level writes a fresh F, and S is only ever read as a structural mask.
	var S []*grb.Matrix[float64]
	for depth := 0; depth < n; depth++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nf := F.NVals()
		if prb.Enabled() {
			dir := "push"
			if pulled {
				dir = "pull"
			}
			prb.Iter(IterStat{Iter: depth + 1, Frontier: nf, Direction: dir})
		}
		if nf == 0 {
			break
		}
		S = append(S, F)
		// P += F (F is masked to unvisited positions, so the union-add is
		// exactly the +=).
		if err := grb.EWiseAdd(P, grb.NoMask, nil, grb.AddOp(grb.PlusOp[float64]()), P, F, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "BC path accumulate")
		}
		// F⟨¬s(P)⟩ = F plus.first A, into the next level's frontier.
		F = grb.MustMatrix[float64](ns, n)
		if pulled, err = bcStep(F, grb.StructMaskOf(P).Not(), S[depth], g.A, at); err != nil {
			return nil, err
		}
	}
	prb.Add("backtrack_levels", int64(max(len(S)-1, 0)))

	// Backtrack phase (lines 13-19).
	B := grb.MustMatrix[float64](ns, n)
	if err := grb.AssignMatrixScalar(B, grb.NoMask, nil, 1.0, grb.All, grb.All, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "BC init B")
	}
	plus := func(a, b float64) float64 { return a + b }
	W := grb.MustMatrix[float64](ns, n)
	for i := len(S) - 1; i >= 1; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// W⟨s(S[i]), r⟩ = B div∩ P.
		if err := grb.EWiseMult(W, grb.StructMaskOf(S[i]), nil, grb.DivOp[float64](), B, P, grb.DescR); err != nil {
			return nil, wrap(StatusInvalidValue, err, "BC dependency ratio")
		}
		// W⟨s(S[i-1]), r⟩ = W plus.first Aᵀ.
		if _, err := bcStep(W, grb.StructMaskOf(S[i-1]), W, at, g.A); err != nil {
			return nil, err
		}
		// B += W ×∩ P.
		if err := grb.EWiseMult(B, grb.NoMask, plus, grb.TimesOp[float64](), W, P, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "BC dependency accumulate")
		}
	}

	// centrality(:) = -ns; centrality += [+i B(i,:)] (lines 20-21): column
	// sums of B, shifted so each source's own unit contribution cancels.
	centrality := grb.DenseVector(n, float64(-ns))
	colSum := grb.MustVector[float64](n)
	if err := grb.ReduceMatrixToVector(colSum, grb.NoVMask, nil, grb.PlusMonoid[float64](), B, grb.DescT0); err != nil {
		return nil, wrap(StatusInvalidValue, err, "BC column sums")
	}
	if err := grb.EWiseAddV(centrality, grb.NoVMask, nil, grb.PlusOp[float64](), centrality, colSum, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "BC shift")
	}
	return centrality, nil
}

// bcStep computes out⟨mask, r⟩ = in plus.first X, choosing push (multiply
// by X) or, when in is denser than 1/bcPullThreshold (the simple heuristic
// the paper alludes to in §IV-B), pull (the dot kernel against XT = Xᵀ via
// the descriptor). The forward phase passes (A, Aᵀ), the backward phase
// (Aᵀ, A). out and in may alias. It reports whether it pulled.
func bcStep[T grb.Value](out *grb.Matrix[float64], mask grb.Mask, in *grb.Matrix[float64], X, XT *grb.Matrix[T]) (bool, error) {
	ns, n := in.Dims()
	pull := in.NVals()*bcPullThreshold > ns*n
	Y, desc := X, grb.DescR
	if pull {
		Y, desc = XT, grb.DescRT1
	}
	return pull, wrap(StatusInvalidValue, grb.MxM(out, mask, nil, grb.PlusFirst[float64, T](), in, Y, desc), "BC step")
}
