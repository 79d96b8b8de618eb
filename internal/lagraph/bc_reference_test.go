package lagraph

import (
	"context"
	"fmt"
	"math"
	"testing"

	"lagraph/internal/gap"
	"lagraph/internal/gen"
	"lagraph/internal/grb"
)

// bcAlgorithm3 is the paper's Algorithm 3 as written, the reference
// BetweennessCentralityAdvanced is checked against: per level an EWiseAdd
// into P and a masked multiply into a fresh frontier, each level's frontier
// kept as the structural mask S[d] of the backward phase, and per backward
// level two EWiseMults around a masked multiply into W. Both multiplies go
// through bcStep, which makes the kernel's push/pull choice. It reports the
// kernel's probe events: per level its frontier and direction, and
// backtrack_levels.
func bcAlgorithm3[T grb.Value](ctx context.Context, g *Graph[T], sources []int) (*grb.Vector[float64], error) {
	at := g.CachedAT()
	n, ns := g.NumNodes(), len(sources)
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

	// BFS phase (lines 6-12).
	var S []*grb.Matrix[float64]
	for depth := 0; depth < n; depth++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nf := F.NVals()
		dir := "push"
		if pulled {
			dir = "pull"
		}
		prb.Iter(IterStat{Iter: depth + 1, Frontier: nf, Direction: dir})
		if nf == 0 {
			break
		}
		S = append(S, F)
		// P += F (F is masked to unvisited positions, so the union-add is
		// exactly the +=).
		if err := grb.EWiseAdd(P, grb.NoMask, nil, grb.AddOp(grb.PlusOp[float64]()), P, F, nil); err != nil {
			return nil, err
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
		return nil, err
	}
	plus := func(a, b float64) float64 { return a + b }
	W := grb.MustMatrix[float64](ns, n)
	for i := len(S) - 1; i >= 1; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// W⟨s(S[i]), r⟩ = B div∩ P.
		if err := grb.EWiseMult(W, grb.StructMaskOf(S[i]), nil, grb.DivOp[float64](), B, P, grb.DescR); err != nil {
			return nil, err
		}
		// W⟨s(S[i-1]), r⟩ = W plus.first Aᵀ.
		if _, err := bcStep(W, grb.StructMaskOf(S[i-1]), W, at, g.A); err != nil {
			return nil, err
		}
		// B += W ×∩ P.
		if err := grb.EWiseMult(B, grb.NoMask, plus, grb.TimesOp[float64](), W, P, nil); err != nil {
			return nil, err
		}
	}

	// centrality(:) = -ns; centrality += [+i B(i,:)] (lines 20-21).
	centrality := grb.DenseVector(n, float64(-ns))
	colSum := grb.MustVector[float64](n)
	if err := grb.ReduceMatrixToVector(colSum, grb.NoVMask, nil, grb.PlusMonoid[float64](), B, grb.DescT0); err != nil {
		return nil, err
	}
	return centrality, grb.EWiseAddV(centrality, grb.NoVMask, nil, grb.PlusOp[float64](), centrality, colSum, nil)
}

// bcStep computes out⟨mask, r⟩ = in plus.first X, choosing push (multiply
// by X) or, when in is denser than 1/bcPullThreshold, pull (the dot kernel
// against XT = Xᵀ via the descriptor). The forward phase passes (A, Aᵀ),
// the backward phase (Aᵀ, A). out and in may alias. It reports whether it
// pulled.
func bcStep[T grb.Value](out *grb.Matrix[float64], mask grb.Mask, in *grb.Matrix[float64], X, XT *grb.Matrix[T]) (bool, error) {
	ns, n := in.Dims()
	pull := in.NVals()*bcPullThreshold > ns*n
	Y, desc := X, grb.DescR
	if pull {
		Y, desc = XT, grb.DescRT1
	}
	return pull, grb.MxM(out, mask, nil, grb.PlusFirst[float64, T](), in, Y, desc)
}

// TestBCMatchesAlgorithm3: the fused kernel computes what Algorithm 3 as
// written does — every centrality within 1e-6, and per level the same
// probe event (level, frontier, direction) and the same backtrack_levels —
// and what gap computes, on Kron, Urand, Road and the directed Twitter
// class, for batches of 1, 4 and 8 sources, the batch of 8 naming one
// source twice. Kron and Urand have 4 096 vertices, so their pull levels
// and widest backward levels are cut across workers.
func TestBCMatchesAlgorithm3(t *testing.T) {
	graphs := []*gen.EdgeList{gen.Kron(12, 8, 1), gen.Urand(12, 8, 1), gen.Road(32, 1), gen.Twitter(10, 8, 1)}
	for _, e := range graphs {
		g := graphFromEdges(t, e)
		if err := g.PropertyAT(); err != nil && !IsWarning(err) {
			t.Fatal(err)
		}
		oracle := gap.Build(e.N, e.Src, e.Dst, nil, e.Directed)
		for _, sources := range [][]int{{e.N / 2}, {0, e.N / 3, e.N / 2, e.N - 1}, {1, 7, e.N / 4, e.N / 2, e.N / 2, e.N - 9, e.N - 5, 3}} {
			what := fmt.Sprintf("%s, %d sources", e.Name, len(sources))
			run := func(kernel func(context.Context, *Graph[float64], []int) (*grb.Vector[float64], error)) (*grb.Vector[float64], ProbeSnapshot) {
				prb := NewProbe(1 << 20)
				c, err := kernel(WithProbe(bg, prb), g, sources)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				return c, prb.Snapshot()
			}
			got, gotProbe := run(BetweennessCentralityAdvanced[float64])
			ref, refProbe := run(bcAlgorithm3[float64])
			sources32 := make([]int32, len(sources))
			for k, s := range sources {
				sources32[k] = int32(s)
			}
			want := gap.BC(oracle, sources32)
			refVals := make([]float64, e.N)
			ref.Iterate(func(i int, x float64) { refVals[i] = x })
			if got.NVals() != e.N || ref.NVals() != e.N {
				t.Fatalf("%s: %d and %d centralities for %d vertices", what, got.NVals(), ref.NVals(), e.N)
			}
			got.Iterate(func(i int, x float64) {
				if math.Abs(x-refVals[i]) > 1e-6*(1+math.Abs(refVals[i])) || math.Abs(x-want[i]) > 1e-6*(1+math.Abs(want[i])) {
					t.Fatalf("%s: bc(%d) = %v, algorithm 3 %v, gap %v", what, i, x, refVals[i], want[i])
				}
			})
			if len(gotProbe.Iters) != len(refProbe.Iters) {
				t.Fatalf("%s: %d level events, algorithm 3 %d", what, len(gotProbe.Iters), len(refProbe.Iters))
			}
			for k, it := range gotProbe.Iters {
				if it != refProbe.Iters[k] {
					t.Fatalf("%s: level event %d is %+v, algorithm 3 %+v", what, k, it, refProbe.Iters[k])
				}
			}
			if got, ref := gotProbe.Counters["backtrack_levels"], refProbe.Counters["backtrack_levels"]; got != ref {
				t.Fatalf("%s: backtrack_levels %d, algorithm 3 %d", what, got, ref)
			}
		}
	}
}
