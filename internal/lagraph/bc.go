package lagraph

import (
	"context"

	"lagraph/internal/grb"
)

// Betweenness centrality (paper §IV-B, Algorithm 3): Brandes' algorithm
// batched over ns source vertices. The forward (BFS) phase counts shortest
// paths with plus.first over an ns×n frontier matrix; the backward phase
// accumulates dependencies. Direction optimisation is the same push/pull
// transformation as the BFS: the push multiplies by A, the pull by Bᵀ with
// B = Aᵀ held explicitly (the cached G.AT), via the transpose descriptor.

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
	semiring := grb.PlusFirst[float64, T]()
	F := grb.MustMatrix[float64](ns, n)
	lastPull, err := bcFrontierStep(F, P, P, g.A, at, semiring)
	if err != nil {
		return nil, err
	}

	// BFS phase (lines 6-12): record the frontier pattern per level.
	var S []*grb.Matrix[bool]
	plus := func(a, b float64) float64 { return a + b }
	for depth := 0; depth < n; depth++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nf := F.NVals()
		if prb.Enabled() {
			dir := "push"
			if lastPull {
				dir = "pull"
			}
			prb.Iter(IterStat{Iter: depth + 1, Frontier: nf, Direction: dir})
		}
		if nf == 0 {
			break
		}
		// S[d]⟨s(F)⟩ = 1: the pattern of F.
		Sd, err := Pattern(F)
		if err != nil {
			return nil, err
		}
		S = append(S, Sd)
		// P += F (F is masked to unvisited positions, so the union-add is
		// exactly the +=).
		if err := grb.EWiseAdd(P, grb.NoMask, nil, grb.AddOp(grb.PlusOp[float64]()), P, F, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "BC path accumulate")
		}
		// F⟨¬s(P), r⟩ = F plus.first A (push) or F·(Aᵀ)ᵀ (pull).
		if lastPull, err = bcFrontierStep(F, F, P, g.A, at, semiring); err != nil {
			return nil, err
		}
	}
	prb.Add("backtrack_levels", int64(max(len(S)-1, 0)))

	// Backtrack phase (lines 13-19).
	B := grb.MustMatrix[float64](ns, n)
	if err := grb.AssignMatrixScalar(B, grb.NoMask, nil, 1.0, grb.All, grb.All, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "BC init B")
	}
	backSemiring := grb.PlusFirst[float64, T]()
	for i := len(S) - 1; i >= 1; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// W⟨s(S[i]), r⟩ = B div∩ P.
		W := grb.MustMatrix[float64](ns, n)
		if err := grb.EWiseMult(W, grb.StructMaskOf(S[i]), nil, grb.DivOp[float64](), B, P, grb.DescR); err != nil {
			return nil, wrap(StatusInvalidValue, err, "BC dependency ratio")
		}
		// W⟨s(S[i-1]), r⟩ = W plus.first Aᵀ — pull is W·A via descriptor.
		if bcUsePull(W, ns, n) {
			if err := grb.MxM(W, grb.StructMaskOf(S[i-1]), nil, backSemiring, W, g.A, grb.DescRT1); err != nil {
				return nil, wrap(StatusInvalidValue, err, "BC backward pull")
			}
		} else {
			if err := grb.MxM(W, grb.StructMaskOf(S[i-1]), nil, backSemiring, W, at, grb.DescR); err != nil {
				return nil, wrap(StatusInvalidValue, err, "BC backward push")
			}
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

// bcFrontierStep computes out⟨¬s(P), r⟩ = in plus.first A, choosing push
// (multiply by A) or pull (multiply by ATᵀ via the descriptor) from the
// frontier density. A and at are the caller's snapshots of the adjacency
// matrix and cached transpose. out and in may alias. The returned bool
// reports whether the pull formulation was chosen.
func bcFrontierStep[T grb.Value](out, in, P *grb.Matrix[float64], A, at *grb.Matrix[T], semiring grb.Semiring[float64, T, float64]) (bool, error) {
	ns, n := out.Dims()
	mask := grb.StructMaskOf(P).Not()
	if bcUsePull(in, ns, n) {
		// F = F·(Aᵀ)ᵀ: dot kernel against the cached transpose.
		return true, wrap(StatusInvalidValue,
			grb.MxM(out, mask, nil, semiring, in, at, grb.DescRT1), "BC pull step")
	}
	return false, wrap(StatusInvalidValue,
		grb.MxM(out, mask, nil, semiring, in, A, grb.DescR), "BC push step")
}

// bcUsePull decides push vs pull from the frontier density (the simple
// heuristic the paper alludes to in §IV-B).
func bcUsePull[T grb.Value](F *grb.Matrix[T], ns, n int) bool {
	return F.NVals()*bcPullThreshold > ns*n
}
