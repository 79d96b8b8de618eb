package lagraph

import (
	"context"

	"lagraph/internal/grb"
)

// Two tiers, one signature.
//
// Every algorithm exports exactly one function per tier of the paper's
// user model (§II-B/C) — Basic, which "simply wants the correct answer" and
// may compute and cache graph properties to get it, and Advanced, which
// computes nothing behind the caller's back and fails with
// StatusPropertyMissing instead — and ctx is the first parameter of that
// one signature. There are no context-free twins: a caller with nothing to
// cancel passes its own root context.
//
// The iteration loop polls ctx.Err() once per iteration/epoch — a single
// non-blocking check per frontier step, PageRank sweep, Δ-bucket, BC level
// or FastSV round, so the overhead is unmeasurable against the matrix work
// inside the loop — and returns the context's error (context.Canceled or
// context.DeadlineExceeded, unwrapped, so errors.Is works) as soon as
// cancellation is observed. igraph lists interruptible long computations
// among the robustness requirements of a production network-analysis
// library; this is the LAGraph-side half of that contract, with the jobs
// engine supplying the contexts. BFSStep, a single step whose loop the
// caller owns, is the one kernel function without a ctx.

// ensureCached is the Basic-mode contract, stated once: it materialises
// the given properties on g through Ensure, polling ctx before each, and
// reports whether anything was computed. A Basic entry passes that to
// cacheWarning on success, so it returns WarnCacheNotComputed iff the call
// cached something on the caller's graph.
func ensureCached[T grb.Value](ctx context.Context, g *Graph[T], props ...Property) (computed bool, err error) {
	for _, p := range props {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		c, err := g.Ensure(p)
		if err != nil {
			return false, err
		}
		computed = computed || c
	}
	return computed, nil
}

// cacheWarning is the error a Basic entry returns on success: nil, or the
// WarnCacheNotComputed warning when ensureCached computed something.
func cacheWarning(op string, computed bool) error {
	if !computed {
		return nil
	}
	return &Warning{Status: WarnCacheNotComputed, Msg: op + " cached graph properties"}
}

// validateGraph rejects a graph without an adjacency matrix.
func validateGraph[T grb.Value](g *Graph[T], op string) error {
	if g == nil || g.A == nil {
		return errf(StatusInvalidGraph, "%s: nil graph", op)
	}
	return nil
}
