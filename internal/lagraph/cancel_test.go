package lagraph

import (
	"context"
	"errors"
	"testing"
	"time"

	"lagraph/internal/gen"
)

// Cancellation contract: every kernel entry point polls its context inside
// the iteration loop and returns context.Canceled — the raw sentinel, not
// a wrapped lagraph error — once the context is done.

// bg is the root context of tests that have nothing to cancel.
var bg = context.Background()

// cancelledCtx returns an already-cancelled context.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	return ctx
}

// warmGraph returns an undirected Kron graph (so TC and LCC run too) with
// every property a kernel may want already cached.
func warmGraph(t *testing.T, scale int) *Graph[float64] {
	t.Helper()
	g := graphFromEdges(t, gen.Kron(scale, 8, 1))
	for _, property := range []func() error{g.PropertyAT, g.PropertyRowDegree, g.PropertyNDiag} {
		if err := property(); err != nil && !IsWarning(err) {
			t.Fatal(err)
		}
	}
	return g
}

// TestAllAlgorithmsObservePreCancelledContext covers every ctx-taking
// entry of the surface (BFSStep, the loop-free sixteenth, takes none); a
// new kernel gets a row here when it enters the catalog.
func TestAllAlgorithmsObservePreCancelledContext(t *testing.T) {
	g := warmGraph(t, 7)
	ctx := cancelledCtx()

	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"BreadthFirstSearch", func() error { _, _, err := BreadthFirstSearch(ctx, g, 0, true, true); return err }},
		{"BreadthFirstSearchAdvanced", func() error { _, _, err := BreadthFirstSearchAdvanced(ctx, g, 0, true, true); return err }},
		{"BFSParentPushOnly", func() error { _, err := BFSParentPushOnly(ctx, g, 0); return err }},
		{"PageRank", func() error { _, _, err := PageRank(ctx, g, 0.85, 1e-4, 100); return err }},
		{"PageRankGAP", func() error { _, _, err := PageRankGAP(ctx, g, 0.85, 1e-4, 100); return err }},
		{"PageRankGX", func() error { _, _, err := PageRankGX(ctx, g, 0.85, 1e-4, 100); return err }},
		{"ConnectedComponents", func() error { _, err := ConnectedComponents(ctx, g); return err }},
		{"ConnectedComponentsAdvanced", func() error { _, err := ConnectedComponentsAdvanced(ctx, g); return err }},
		{"SingleSourceShortestPath", func() error { _, err := SingleSourceShortestPath(ctx, g, 0, 0); return err }},
		{"SSSPDeltaStepping", func() error { _, err := SSSPDeltaStepping(ctx, g, 0, 2); return err }},
		{"TriangleCount", func() error { _, err := TriangleCount(ctx, g); return err }},
		{"TriangleCountAdvanced", func() error { _, err := TriangleCountAdvanced(ctx, g, TCSandiaLUT, true); return err }},
		{"BetweennessCentrality", func() error { _, err := BetweennessCentrality(ctx, g, []int{0, 1}); return err }},
		{"BetweennessCentralityAdvanced", func() error { _, err := BetweennessCentralityAdvanced(ctx, g, []int{0, 1}); return err }},
		{"LocalClusteringCoefficient", func() error { _, err := LocalClusteringCoefficient(ctx, g); return err }},
	} {
		if err := tc.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
	}
}

// TestBasicEntriesWarnIffTheyCached states the Basic contract for every
// Basic entry: on a cold graph the call succeeds with the
// WarnCacheNotComputed warning (it cached properties on the caller's
// graph), on the now-warm graph the same call returns nil. Delta-stepping
// reads only G.A, so SingleSourceShortestPath has nothing to cache and is
// nil both times; ConnectedComponents caches the transpose only for a
// directed graph.
func TestBasicEntriesWarnIffTheyCached(t *testing.T) {
	undirected := func() *Graph[float64] { return graphFromEdges(t, gen.Kron(6, 8, 1)) }
	directed := func() *Graph[float64] { return graphFromEdges(t, gen.Twitter(6, 8, 1)) }
	for _, tc := range []struct {
		name     string
		graph    func() *Graph[float64]
		coldWarn bool
		run      func(g *Graph[float64]) error
	}{
		{"BreadthFirstSearch", directed, true, func(g *Graph[float64]) error { _, _, err := BreadthFirstSearch(bg, g, 0, true, true); return err }},
		{"PageRank", directed, true, func(g *Graph[float64]) error { _, _, err := PageRank(bg, g, 0.85, 1e-4, 100); return err }},
		{"ConnectedComponents/directed", directed, true, func(g *Graph[float64]) error { _, err := ConnectedComponents(bg, g); return err }},
		{"ConnectedComponents/undirected", undirected, false, func(g *Graph[float64]) error { _, err := ConnectedComponents(bg, g); return err }},
		{"SingleSourceShortestPath", directed, false, func(g *Graph[float64]) error { _, err := SingleSourceShortestPath(bg, g, 0, 0); return err }},
		{"TriangleCount", undirected, true, func(g *Graph[float64]) error { _, err := TriangleCount(bg, g); return err }},
		{"BetweennessCentrality", directed, true, func(g *Graph[float64]) error { _, err := BetweennessCentrality(bg, g, []int{0, 1}); return err }},
		{"LocalClusteringCoefficient", undirected, true, func(g *Graph[float64]) error { _, err := LocalClusteringCoefficient(bg, g); return err }},
	} {
		g := tc.graph()
		cold := tc.run(g)
		if tc.coldWarn && StatusOf(cold) != WarnCacheNotComputed {
			t.Errorf("%s on a cold graph: err = %v, want the WarnCacheNotComputed warning", tc.name, cold)
		}
		if !tc.coldWarn && cold != nil {
			t.Errorf("%s on a cold graph: err = %v, want nil (nothing to cache)", tc.name, cold)
		}
		if warm := tc.run(g); warm != nil {
			t.Errorf("%s on a warm graph: err = %v, want nil", tc.name, warm)
		}
	}
}

// TestPageRankCancelledMidIteration cancels a PageRank that can never
// converge (negative tolerance, effectively unbounded iteration budget)
// and requires the loop to stop promptly with context.Canceled — the
// "cancelled job stops consuming CPU" half of the jobs-engine contract.
func TestPageRankCancelledMidIteration(t *testing.T) {
	g := warmGraph(t, 8)
	ctx, cancel := context.WithCancel(bg)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, iters, err := PageRankGX(ctx, g, 0.85, -1 /* never converges */, 1<<30)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %d iters, want context.Canceled", err, iters)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %s; the loop is not polling its context", elapsed)
	}
	if iters == 0 {
		t.Fatal("expected at least one completed iteration before cancellation")
	}
}

// pollCtx is a context whose Err starts returning context.Canceled at its
// cancelAt-th poll (never, for 0), counting its polls.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestBCCancelsWithinOnePollPerLevel pins BC's cancellation latency: a run
// to completion on Road 32×32 polls its context once per forward step (the
// non-empty levels and the empty one that ends the phase) and once per
// backward level, and a context that turns cancelled at its j-th poll, for
// every j up to that count, makes BC return the raw context.Canceled at
// that poll, with no step run after it.
func TestBCCancelsWithinOnePollPerLevel(t *testing.T) {
	g := graphFromEdges(t, gen.Road(32, 1))
	if err := g.PropertyAT(); err != nil && !IsWarning(err) {
		t.Fatal(err)
	}
	sources := []int{0, 300, 700, 1023}
	prb := NewProbe(1 << 20)
	full := &pollCtx{Context: WithProbe(bg, prb)}
	if _, err := BetweennessCentralityAdvanced(full, g, sources); err != nil {
		t.Fatal(err)
	}
	snap := prb.Snapshot()
	levels := len(snap.Iters) + int(snap.Counters["backtrack_levels"])
	if full.polls != levels || levels < 60 {
		t.Fatalf("%d polls for %d forward steps and %d backward levels", full.polls, len(snap.Iters), snap.Counters["backtrack_levels"])
	}
	for j := 1; j <= levels; j++ {
		ctx := &pollCtx{Context: bg, cancelAt: j}
		if _, err := BetweennessCentralityAdvanced(ctx, g, sources); err != context.Canceled || ctx.polls != j {
			t.Fatalf("cancelled at poll %d: err = %v after %d polls, want the raw context.Canceled after %d", j, err, ctx.polls, j)
		}
	}
}

// TestBFSCancelsWithinOnePollPerLevel pins BFS's cancellation latency as
// BC's is pinned: a run to completion on Road 32×32 polls its context once
// per step (the non-empty levels and the empty one that ends it), and a
// context that turns cancelled at its j-th poll, for every j up to that
// count, makes BFS return the raw context.Canceled at that poll, with no
// step run after it.
func TestBFSCancelsWithinOnePollPerLevel(t *testing.T) {
	g := graphFromEdges(t, gen.Road(32, 1))
	for _, property := range []func() error{g.PropertyAT, g.PropertyRowDegree} {
		if err := property(); err != nil && !IsWarning(err) {
			t.Fatal(err)
		}
	}
	run := func(cancelAt int) (*pollCtx, int, error) {
		prb := NewProbe(1 << 20)
		ctx := &pollCtx{Context: WithProbe(bg, prb), cancelAt: cancelAt}
		_, _, err := BreadthFirstSearchAdvanced(ctx, g, 0, true, true)
		return ctx, len(prb.Snapshot().Iters), err
	}
	full, steps, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if full.polls != steps || steps < 50 {
		t.Fatalf("%d polls for %d steps", full.polls, steps)
	}
	for j := 1; j <= steps; j++ {
		if ctx, ran, err := run(j); err != context.Canceled || ctx.polls != j || ran != j-1 {
			t.Fatalf("cancelled at poll %d: err = %v after %d polls and %d steps, want the raw context.Canceled after %d and %d", j, err, ctx.polls, ran, j, j-1)
		}
	}
}

// TestSSSPCancelsWithinOnePollPerBucket pins SSSP's cancellation latency:
// a run to completion on Road 32×32 (weights in [1, 255], Δ = 64) polls
// its context once per bucket epoch and once per light relaxation round,
// and a context that turns cancelled at its j-th poll, for every j up to
// that count, makes SSSP return the raw context.Canceled at that poll.
func TestSSSPCancelsWithinOnePollPerBucket(t *testing.T) {
	e := gen.Road(32, 1)
	e.AddUniformWeights(7, 1, 255)
	g := weightedGraph[float64](t, e)
	full := &pollCtx{Context: bg}
	if _, err := SSSPDeltaStepping(full, g, 0, 64); err != nil {
		t.Fatal(err)
	}
	if full.polls < 50 {
		t.Fatalf("%d polls: the run is too short to pin anything", full.polls)
	}
	for j := 1; j <= full.polls; j++ {
		ctx := &pollCtx{Context: bg, cancelAt: j}
		if _, err := SSSPDeltaStepping(ctx, g, 0, 64); err != context.Canceled || ctx.polls != j {
			t.Fatalf("cancelled at poll %d: err = %v after %d polls, want the raw context.Canceled after %d", j, err, ctx.polls, j)
		}
	}
}

// TestCCCancelsWithinOnePollPerRound pins CC's cancellation latency: a
// FastSV run to completion on Road 32×32, undirected (its list holds both
// orientations), polls its context once per hooking/shortcutting round,
// and a context that turns cancelled at its j-th poll, for every j up to
// that count, makes CC return the raw context.Canceled at that poll, with
// no round run after it.
func TestCCCancelsWithinOnePollPerRound(t *testing.T) {
	e := gen.Road(32, 1)
	e.Directed = false
	g := graphFromEdges(t, e)
	run := func(cancelAt int) (*pollCtx, int, error) {
		prb := NewProbe(1 << 20)
		ctx := &pollCtx{Context: WithProbe(bg, prb), cancelAt: cancelAt}
		_, err := ConnectedComponents(ctx, g)
		return ctx, len(prb.Snapshot().Iters), err
	}
	full, rounds, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if full.polls != rounds || rounds < 3 {
		t.Fatalf("%d polls for %d rounds", full.polls, rounds)
	}
	for j := 1; j <= rounds; j++ {
		if ctx, ran, err := run(j); err != context.Canceled || ctx.polls != j || ran != j-1 {
			t.Fatalf("cancelled at poll %d: err = %v after %d polls and %d rounds, want the raw context.Canceled after %d and %d", j, err, ctx.polls, ran, j, j-1)
		}
	}
}

// TestPageRankCancelsWithinOnePollPerSweep pins PageRank's cancellation
// latency as CC's is pinned: a run to convergence on Road 32×32 polls its
// context once per sweep, for both formulations, and a context that turns
// cancelled at its j-th poll, for every j up to that count, makes PageRank
// return the raw context.Canceled at that poll, with no sweep run after it.
func TestPageRankCancelsWithinOnePollPerSweep(t *testing.T) {
	g := graphFromEdges(t, gen.Road(32, 1))
	for _, property := range []func() error{g.PropertyAT, g.PropertyRowDegree} {
		if err := property(); err != nil && !IsWarning(err) {
			t.Fatal(err)
		}
	}
	for _, pr := range []struct {
		name string
		run  func(context.Context) (int, error)
	}{
		{"PageRankGAP", func(ctx context.Context) (int, error) {
			_, it, err := PageRankGAP(ctx, g, 0.85, 1e-4, 100)
			return it, err
		}},
		{"PageRankGX", func(ctx context.Context) (int, error) {
			_, it, err := PageRankGX(ctx, g, 0.85, 1e-4, 100)
			return it, err
		}},
	} {
		run := func(cancelAt int) (*pollCtx, int, error) {
			prb := NewProbe(1 << 20)
			ctx := &pollCtx{Context: WithProbe(bg, prb), cancelAt: cancelAt}
			_, err := pr.run(ctx)
			return ctx, len(prb.Snapshot().Iters), err
		}
		full, sweeps, err := run(0)
		if err != nil {
			t.Fatal(err)
		}
		if full.polls != sweeps || sweeps < 5 || sweeps >= 100 {
			t.Fatalf("%s: %d polls for %d sweeps", pr.name, full.polls, sweeps)
		}
		for j := 1; j <= sweeps; j++ {
			if ctx, ran, err := run(j); err != context.Canceled || ctx.polls != j || ran != j-1 {
				t.Fatalf("%s cancelled at poll %d: err = %v after %d polls and %d sweeps, want the raw context.Canceled after %d and %d", pr.name, j, err, ctx.polls, ran, j, j-1)
			}
		}
	}
}
